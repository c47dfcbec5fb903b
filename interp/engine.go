package interp

import "fmt"

// Engine selects how machine bodies are executed. Both engines implement
// the same operational semantics (the differential corpus harness locks
// them together, outcome for outcome); they differ only in speed and
// machinery.
type Engine uint8

const (
	// EngineBytecode (the default) compiles each machine and monitor body
	// once per loaded Program into compact stack-machine bytecode and runs
	// it on an operand-stack VM with the checker's event, field, state and
	// method indices as operands — no string hashing and no per-dispatch allocation on
	// the hot path. See the package docs, "Bytecode execution".
	EngineBytecode Engine = iota
	// EngineWalk is the reference tree-walking evaluator (eval.go): it
	// re-traverses the AST on every handler dispatch. Roughly an order of
	// magnitude slower; kept as the semantic baseline and debugging
	// fallback (-interp=walk in the CLIs).
	EngineWalk
)

// String names the engine as the CLIs spell it.
func (e Engine) String() string {
	switch e {
	case EngineWalk:
		return "walk"
	default:
		return "bytecode"
	}
}

// ParseEngine parses a CLI engine name: "bytecode" or "walk".
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "bytecode":
		return EngineBytecode, nil
	case "walk":
		return EngineWalk, nil
	}
	return EngineBytecode, fmt.Errorf("interp: unknown engine %q (want bytecode or walk)", s)
}
