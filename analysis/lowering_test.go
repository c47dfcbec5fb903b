package analysis

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/psharp-go/psharp/lang"
)

// TestLoweringDifferential holds the integer lowering of ir.go and xsa.go
// to the string-operand lowering it replaced (reference_test.go): for every
// method, entry block and cross-state CFG of the 21 corpus sources, the
// differential seeds and the generated programs, the per-node tables the
// solver reads must equal, node for node, what refIndex derives from the old
// form — operands compared by variable name, since the new form numbers
// variables as they are declared and the old one in name order.
func TestLoweringDifferential(t *testing.T) {
	var progs []corpusSource
	progs = append(progs, corpusSources(t)...)
	for i, src := range differentialSeeds {
		progs = append(progs, corpusSource{fmt.Sprintf("differentialSeeds[%d]", i), src})
	}
	generated := 120
	if testing.Short() {
		generated = 30
	}
	for seed := uint64(1); seed <= uint64(generated); seed++ {
		progs = append(progs, corpusSource{fmt.Sprintf("generated program %d", seed), generateProgram(seed)})
	}
	methods, nodes := 0, 0
	for _, src := range progs {
		prog := src.program(t)
		calleeName := make(map[*lang.MethodDecl]string)
		lo := new(lowerer)
		compare := func(m *Method, old *refMethod) {
			t.Helper()
			methods++
			nodes += len(m.nodes)
			if diff := lowerDiff(m, old, calleeName); diff != "" {
				t.Fatalf("%s: %s.%s: %s", src.id, m.Holder, m.Name, diff)
			}
		}
		for _, cd := range prog.Classes {
			for _, m := range cd.Methods {
				calleeName[m] = cd.Name + "." + m.Name
			}
		}
		for _, md := range prog.Machines {
			for _, m := range md.Methods {
				calleeName[m] = md.Name + "." + m.Name
			}
		}
		for _, cd := range prog.Classes {
			for _, m := range cd.Methods {
				compare(lo.method(cd.Name, m), refBuildMethod(prog, cd.Name, m))
			}
		}
		for _, md := range prog.Machines {
			for _, m := range md.Methods {
				compare(lo.method(md.Name, m), refBuildMethod(prog, md.Name, m))
			}
			for _, s := range md.States {
				if s.Entry != nil {
					decl := &lang.MethodDecl{Name: "$entry_" + s.Name, Body: s.Entry, Pos: s.Pos}
					compare(lo.method(md.Name, s.EntryMethod), refBuildMethod(prog, md.Name, decl))
				}
			}
			compare(lo.machine(md), refBuildMachineCFG(prog, md))
		}
	}
	t.Logf("%d programs, %d lowered methods, %d nodes", len(progs), methods, nodes)
}

// lowerDiff describes the first difference between a method's two lowered
// forms, "" if there is none.
func lowerDiff(m *Method, old *refMethod, calleeName map[*lang.MethodDecl]string) string {
	if m.Holder != old.Holder || m.Name != old.Name {
		return fmt.Sprintf("named %s.%s, reference %s.%s", m.Holder, m.Name, old.Holder, old.Name)
	}
	if len(m.nodes) != len(old.CFG.Nodes) || m.objs != old.objs {
		return fmt.Sprintf("%d nodes and %d objects, reference %d and %d", len(m.nodes), m.objs, len(old.CFG.Nodes), old.objs)
	}
	if old.CFG.Entry.ID != 0 {
		return "the reference entry is not node 0"
	}
	// Variables: the same names, pointing to the same objects on entry.
	name := func(v int32) string {
		if v < 0 {
			return ""
		}
		return m.varName(v)
	}
	oldName := func(v int) string {
		if v < 0 {
			return ""
		}
		return old.vars[v]
	}
	names := func(vs []int32) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = name(v)
		}
		return out
	}
	oldNames := func(vs []int) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = oldName(v)
		}
		return out
	}
	entry := make(map[string]int)
	var sorted []string
	for v := range m.vars {
		entry[name(int32(v))] = int(m.vars[v].entry)
		sorted = append(sorted, name(int32(v)))
	}
	slices.Sort(sorted)
	if !slices.Equal(sorted, old.vars) {
		return fmt.Sprintf("variables %v, reference %v", sorted, old.vars)
	}
	for v, o := range old.entryObj {
		if entry[old.vars[v]] != o {
			return fmt.Sprintf("%q points to object %d on entry, reference %d", old.vars[v], entry[old.vars[v]], o)
		}
	}
	if name(this) != "this" || old.vars[old.this] != "this" {
		return "the receiver is not \"this\""
	}
	for v := 1; v < len(m.vars); v++ {
		a, b := int32(v-1), int32(v)
		if want := name(a) < name(b); m.nameLess(a, b) != want || m.nameLess(b, a) == want {
			return fmt.Sprintf("nameLess misorders %q and %q", name(a), name(b))
		}
	}

	var readers []int
	for id := range m.nodes {
		n, on, ox := &m.nodes[id], old.CFG.Nodes[id], &old.nodes[id]
		at := fmt.Sprintf("node %d (%s)", id, on.Instr)
		if on.ID != id || n.op != on.Instr.Op || n.pos() != on.Instr.Pos {
			return fmt.Sprintf("%s: op %d at %s, reference op %d at %s", at, n.op, n.pos(), on.Instr.Op, on.Instr.Pos)
		}
		event := ""
		if n.op == OpSend {
			event = m.events[n.site]
		}
		if event != on.Instr.Event {
			return fmt.Sprintf("%s: event %q, reference %q", at, event, on.Instr.Event)
		}
		if name(n.dst) != oldName(ox.dst) || name(n.src) != oldName(ox.src) {
			return fmt.Sprintf("%s: dst %q src %q, reference dst %q src %q", at, name(n.dst), name(n.src), oldName(ox.dst), oldName(ox.src))
		}
		var argv []int32
		if n.op == OpCall {
			argv = m.argv(n)
		}
		if got, want := names(argv), oldNames(ox.argv); !slices.Equal(got, want) {
			return fmt.Sprintf("%s: argv %q, reference %q", at, got, want)
		}
		if got, want := names(m.list(n.uses)), oldNames(ox.uses); !slices.Equal(got, want) {
			return fmt.Sprintf("%s: uses %q, reference %q", at, got, want)
		}
		callee := ""
		if n.op == OpCall {
			callee = calleeName[m.calls[n.site].decl]
		}
		if callee != ox.callee {
			return fmt.Sprintf("%s: callee %q, reference %q", at, callee, ox.callee)
		}
		if (n.op == OpNew || n.op == OpCall) && int(n.alloc) != ox.alloc {
			return fmt.Sprintf("%s: allocation site %d, reference %d", at, n.alloc, ox.alloc)
		}
		succs := make(map[int]bool)
		for _, s := range m.succs(n) {
			succs[int(s)] = true
		}
		oldSuccs := make(map[int]bool)
		for _, s := range on.Succs {
			oldSuccs[s.ID] = true
		}
		if !reflect.DeepEqual(succs, oldSuccs) {
			return fmt.Sprintf("%s: successors %v, reference %v", at, succs, oldSuccs)
		}
		// The new form keeps how many edges come in, not from where: the
		// successor sets above already fix the sources.
		if int(n.preds) != len(on.Preds) || evaluated(id, n) != old.evaluated(on) {
			return fmt.Sprintf("%s: %d predecessors, reference %d", at, n.preds, len(on.Preds))
		}
	}
	for _, id := range m.readers {
		readers = append(readers, int(id))
	}
	if !slices.Equal(readers, old.readers) {
		return fmt.Sprintf("readers %v, reference %v", readers, old.readers)
	}
	return ""
}
