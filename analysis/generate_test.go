package analysis

// A generator of small random core-language programs, dense in the shapes
// the analysis branches on: aliasing assignments, field loads and stores,
// calls through summaries (recursive and mutually recursive ones included),
// sends and creates with payloads, handlers called as helpers, loops, early
// returns with dead code behind them. TestDifferentialGenerated holds the
// dense solver to the reference engine on every generated program — the
// byte-mutating fuzzer rarely leaves the corpus' neighbourhood, this does.

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/psharp-go/psharp/lang"
)

type genMethod struct {
	name   string
	params []string // parameter types
	result string   // "" for none
}

type genHolder struct {
	name    string
	machine bool
	fields  map[string][]string // type -> field names
	methods []genMethod
}

type generator struct {
	rng     *rand.Rand
	sb      strings.Builder
	holders []*genHolder
	events  []string
	// the method being generated
	cur    *genHolder
	locals map[string][]string // type -> variable names in scope
	result string
}

func (g *generator) pick(xs []string) string { return xs[g.rng.IntN(len(xs))] }

func (g *generator) chance(percent int) bool { return g.rng.IntN(100) < percent }

// signature invents a method signature; handlers take at most one parameter.
func (g *generator) signature(name string, maxParams int) genMethod {
	types := []string{"box", "cell", "box", "int", "machine"}
	m := genMethod{name: name}
	for i, n := 0, g.rng.IntN(maxParams+1); i < n; i++ {
		m.params = append(m.params, g.pick(types))
	}
	if maxParams > 1 && g.chance(50) {
		m.result = g.pick([]string{"box", "cell", "int"})
	}
	return m
}

// value renders an expression of the given type.
func (g *generator) value(typ string, depth int) string {
	vars := g.locals[typ]
	switch typ {
	case "int":
		if g.chance(30) {
			return fmt.Sprint(g.rng.IntN(4))
		}
		if fs := g.cur.fields[typ]; len(fs) > 0 && g.chance(30) {
			return "this." + g.pick(fs)
		}
		return g.pick(vars)
	case "machine":
		if fs := g.cur.fields[typ]; len(fs) > 0 && g.chance(40) {
			return "this." + g.pick(fs)
		}
		return g.pick(vars)
	}
	switch n := g.rng.IntN(100); {
	case n < 8:
		return "null"
	case n < 16:
		return "new " + typ
	case n < 30 && len(g.cur.fields[typ]) > 0:
		return "this." + g.pick(g.cur.fields[typ])
	case n < 36 && g.cur.name == typ:
		return "this"
	case n < 50 && depth < 2:
		if call := g.call(typ, depth+1); call != "" {
			return call
		}
	}
	return g.pick(vars)
}

// call renders a call to some method returning result ("" for any method,
// as a statement); "" if there is none.
func (g *generator) call(result string, depth int) string {
	type site struct {
		recv string
		m    genMethod
	}
	var sites []site
	for _, h := range g.holders {
		for _, m := range h.methods {
			if result != "" && m.result != result {
				continue
			}
			if h == g.cur {
				sites = append(sites, site{"this", m})
			}
			if !h.machine {
				sites = append(sites, site{g.pick(g.locals[h.name]), m})
			}
		}
	}
	if len(sites) == 0 {
		return ""
	}
	s := sites[g.rng.IntN(len(sites))]
	args := make([]string, len(s.m.params))
	for i, p := range s.m.params {
		args[i] = g.value(p, depth+1)
	}
	return fmt.Sprintf("%s.%s(%s)", s.recv, s.m.name, strings.Join(args, ", "))
}

func (g *generator) stmts(indent string, n, depth int) {
	for i := 0; i < n; i++ {
		g.stmt(indent, depth)
	}
}

func (g *generator) stmt(indent string, depth int) {
	w := func(format string, args ...any) { fmt.Fprintf(&g.sb, indent+format+"\n", args...) }
	typ := g.pick([]string{"box", "box", "cell"})
	switch n := g.rng.IntN(100); {
	case n < 22:
		w("%s := %s;", g.pick(g.locals[typ]), g.value(typ, 0))
	case n < 32:
		if fs := g.cur.fields[typ]; len(fs) > 0 {
			w("this.%s := %s;", g.pick(fs), g.value(typ, 0))
		}
	case n < 46:
		if call := g.call("", 0); call != "" {
			w("%s;", call)
		}
	case n < 62:
		if g.chance(85) {
			w("send %s, %s, %s;", g.value("machine", 0), g.pick(g.events), g.value(typ, 0))
		} else {
			w("send %s, %s;", g.value("machine", 0), g.pick(g.events))
		}
	case n < 66:
		var machines []string
		for _, h := range g.holders {
			if h.machine {
				machines = append(machines, h.name)
			}
		}
		w("%s := create %s(%s);", g.pick(g.locals["machine"]), g.pick(machines), g.value(typ, 0))
	case n < 72:
		w("%s := %s;", g.pick(g.locals["int"]), g.value("int", 0))
	case n < 84 && depth < 2:
		a, b := g.pick(g.locals[typ]), g.value(typ, 1)
		w("if (%s == %s) {", a, b)
		g.stmts(indent+"\t", 1+g.rng.IntN(3), depth+1)
		if g.chance(50) {
			w("} else {")
			g.stmts(indent+"\t", 1+g.rng.IntN(2), depth+1)
		}
		w("}")
	case n < 90 && depth < 2:
		i := g.pick(g.locals["int"])
		w("while (%s < 3) {", i)
		g.stmts(indent+"\t", 1+g.rng.IntN(3), depth+1)
		w("\t%s := %s + 1;", i, i)
		w("}")
	case n < 94:
		if g.result == "" {
			w("return;")
		} else {
			w("return %s;", g.value(g.result, 0))
		}
	case n < 97:
		w("assert %s == %s;", g.pick(g.locals[typ]), g.pick(g.locals[typ]))
	default:
		w("raise %s;", g.pick(g.events))
	}
}

// body renders the locals and statements of a method or entry block.
func (g *generator) body(indent string, m genMethod) {
	g.locals = map[string][]string{}
	g.result = m.result
	for i, p := range m.params {
		g.locals[p] = append(g.locals[p], fmt.Sprintf("p%d", i))
	}
	for _, typ := range []string{"box", "box", "cell", "machine", "int"} {
		v := fmt.Sprintf("%c%d", typ[0], len(g.locals[typ]))
		g.locals[typ] = append(g.locals[typ], v)
		fmt.Fprintf(&g.sb, "%svar %s: %s;\n", indent, v, typ)
	}
	g.stmts(indent, 2+g.rng.IntN(7), 0)
	if m.result != "" {
		fmt.Fprintf(&g.sb, "%sreturn %s;\n", indent, g.value(m.result, 0))
	}
}

func (g *generator) method(m genMethod) {
	params := make([]string, len(m.params))
	for i, p := range m.params {
		params[i] = fmt.Sprintf("p%d: %s", i, p)
	}
	result := ""
	if m.result != "" {
		result = ": " + m.result
	}
	fmt.Fprintf(&g.sb, "\tmethod %s(%s)%s {\n", m.name, strings.Join(params, ", "), result)
	g.body("\t\t", m)
	g.sb.WriteString("\t}\n")
}

// generateProgram renders one random program; equal seeds give equal text.
func generateProgram(seed uint64) string {
	g := &generator{rng: rand.New(rand.NewPCG(seed, 14)), events: []string{"e0", "e1", "e2"}}
	for _, name := range []string{"box", "cell"} {
		h := &genHolder{name: name, fields: map[string][]string{
			"box": {"fb"}, "cell": {"fc"}, "int": {"fn"}, "machine": {"fm"}}}
		for i, n := 0, 1+g.rng.IntN(3); i < n; i++ {
			h.methods = append(h.methods, g.signature(fmt.Sprintf("%c%d", name[0], i), 3))
		}
		g.holders = append(g.holders, h)
	}
	nMachines := 1 + g.rng.IntN(2)
	for mi := 0; mi < nMachines; mi++ {
		h := &genHolder{name: fmt.Sprintf("m%d", mi), machine: true, fields: map[string][]string{
			"box": {"gb", "hb"}, "cell": {"gc"}, "int": {"gn"}, "machine": {"gm"}}}
		for i := range g.events {
			h.methods = append(h.methods, g.signature(fmt.Sprintf("on%d", i), 1))
		}
		for i, n := 0, g.rng.IntN(3); i < n; i++ {
			h.methods = append(h.methods, g.signature(fmt.Sprintf("help%d", i), 3))
		}
		g.holders = append(g.holders, h)
	}

	for _, e := range g.events {
		fmt.Fprintf(&g.sb, "event %s;\n", e)
	}
	for _, h := range g.holders {
		g.cur = h
		kind := "class"
		if h.machine {
			kind = "machine"
		}
		fmt.Fprintf(&g.sb, "%s %s {\n", kind, h.name)
		for _, typ := range []string{"box", "cell", "int", "machine"} {
			for _, f := range h.fields[typ] {
				fmt.Fprintf(&g.sb, "\tvar %s: %s;\n", f, typ)
			}
		}
		if h.machine {
			nStates := 1 + g.rng.IntN(3)
			for s := 0; s < nStates; s++ {
				start := ""
				if s == 0 {
					start = "start "
				}
				fmt.Fprintf(&g.sb, "\t%sstate S%d {\n", start, s)
				if g.chance(70) {
					g.sb.WriteString("\t\tentry {\n")
					g.body("\t\t\t", genMethod{})
					g.sb.WriteString("\t\t}\n")
				}
				for i, e := range g.events {
					switch n := g.rng.IntN(100); {
					case n < 55:
						fmt.Fprintf(&g.sb, "\t\ton %s do on%d;\n", e, i)
					case n < 80:
						fmt.Fprintf(&g.sb, "\t\ton %s goto S%d;\n", e, g.rng.IntN(nStates))
					}
				}
				g.sb.WriteString("\t}\n")
			}
		}
		for _, m := range h.methods {
			g.method(m)
		}
		g.sb.WriteString("}\n")
	}
	return g.sb.String()
}

// TestDifferentialGenerated requires the dense solver and the reference
// engine to agree on generated programs, and the generator to stay useful:
// every program must parse and check, and the population must exercise both
// verdicts, xSA discharges, the read-only filter and non-empty give-up sets.
func TestDifferentialGenerated(t *testing.T) {
	programs := 120
	if testing.Short() {
		programs = 30
	}
	var flagged, verified, discharged, suppressed, givers int
	for seed := uint64(1); seed <= uint64(programs); seed++ {
		text := generateProgram(seed)
		prog, err := lang.Parse(text)
		if err == nil {
			err = lang.Check(prog)
		}
		if err != nil {
			t.Fatalf("seed %d: the generator produced an invalid program: %v\n%s", seed, err, text)
		}
		requireSameAsReference(t, fmt.Sprintf("generated program %d", seed), prog)
		if t.Failed() {
			t.Fatalf("seed %d:\n%s", seed, text)
		}
		res, gu := AnalyzeGivesUp(prog, Options{XSA: true, ReadOnly: true})
		if res.Verified() {
			verified++
		} else {
			flagged++
		}
		if len(res.Violations)+res.ReadOnlySuppressed < len(res.BaseViolations) {
			discharged++
		}
		if res.ReadOnlySuppressed > 0 {
			suppressed++
		}
		if len(gu) > 0 {
			givers++
		}
	}
	t.Logf("%d programs: %d flagged, %d verified, %d with xSA discharges, %d with read-only suppressions, %d with give-up sets",
		programs, flagged, verified, discharged, suppressed, givers)
	if flagged == 0 || verified == 0 || discharged == 0 || suppressed == 0 || givers == 0 {
		t.Error("the generated population misses an analysis outcome")
	}
}
