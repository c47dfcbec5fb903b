package analysis

import (
	"fmt"
	"sort"

	"github.com/psharp-go/psharp/lang"
)

// crossState returns the analyzer of one machine's cross-state form: the
// base analyzer's class methods as they are (lowered, solved, summaries
// converged — class methods only call class methods, so the machine cannot
// move them), the machine's helper methods (not bound to any event) solved
// again — they stay method-modular, but a handler they call is an unknown
// callee here — and the overarching machine-level CFG.
func (a *analyzer) crossState(md *lang.MachineDecl) *analyzer {
	x := &analyzer{prog: a.prog, units: make(map[string]*methodAnalysis, a.classUnits+len(md.Methods)+1)}
	for _, u := range a.order[:a.classUnits] {
		x.units[u.name] = u
	}
	handlerNames := make(map[string]bool)
	for _, s := range md.States {
		for _, meth := range s.OnDo {
			handlerNames[meth] = true
		}
	}
	for _, m := range md.Methods {
		if !handlerNames[m.Name] {
			x.add(a.units[md.Name+"."+m.Name].method)
		}
	}
	x.add(buildMachineCFG(a.prog, md))
	x.runFixpoint()
	return x
}

// buildMachineCFG builds the cross-state analysis form of a machine
// (Section 5.4): one overarching CFG in which every state's entry block and
// every bound handler is inlined, the end of each handler leads to the hub
// of the (possibly new) state — "at the end of each method representing a
// state we non-deterministically call one of the methods representing an
// immediate successor state" — and machine fields are lifted to
// machine-level variables ("$f") with strong updates, which is what lets a
// reset like `this.f := null;` after a send discharge the staged-payload
// false positives (paper Example 5.5).
//
// Handler payloads are modeled as fresh unknown regions, one abstract
// object per inlined handler copy.
func buildMachineCFG(prog *lang.Program, md *lang.MachineDecl) *Method {
	m := &Method{Holder: md.Name, Name: "$machine", RefVar: make(map[string]bool)}
	lo := &lowerer{prog: prog, lifted: true, method: m}
	entry := lo.newNode(Instr{Op: OpNop, Pos: md.Pos})
	exit := lo.newNode(Instr{Op: OpNop, Pos: md.Pos})

	// One hub node per state; control returns to a hub after each handler.
	hubs := make(map[string]*Node, len(md.States))
	for _, s := range md.States {
		hubs[s.Name] = lo.newNode(Instr{Op: OpNop, Pos: s.Pos})
	}

	copies := 0
	// inlineBody lowers stmts with a fresh prefix and links any contained
	// returns to the continuation node.
	inlineBody := func(stmts []lang.Stmt, payload *lang.VarDecl, pos lang.Pos) (head *Node, cont func(*Node)) {
		copies++
		lo.prefix = fmt.Sprintf("h%d$", copies)
		firstNew := len(lo.nodes)
		var c chain
		if payload != nil {
			name := lo.local(payload.Name)
			if payload.Type.IsRef() {
				m.RefVar[name] = true
			}
			// The payload is an unknown region owned by this machine from
			// the moment the handler starts (paper: "an action assumes
			// ownership of any payload it receives").
			lo.seq(&c, lo.newNode(Instr{Op: OpNew, Dst: name, Class: "$payload", Pos: pos}))
		}
		decl := &lang.MethodDecl{Name: "$inline", Body: stmts, Pos: pos}
		if payload != nil {
			decl.Params = []*lang.VarDecl{payload}
		}
		body := lowerBodyLifted(lo, decl)
		lo.append(&c, body)
		if c.head == nil {
			n := lo.newNode(Instr{Op: OpNop, Pos: pos})
			c = chain{head: n, tails: []*Node{n}}
		}
		created := lo.nodes[firstNew:]
		tails := c.tails
		lo.prefix = ""
		return c.head, func(next *Node) {
			for _, t := range tails {
				link(t, next)
			}
			for _, n := range created {
				if n.Instr.Op == OpReturn && len(n.Succs) == 0 {
					link(n, next)
				}
			}
		}
	}

	// Entry chains, one per state with an entry block.
	entryHead := make(map[string]*Node)
	entryCont := make(map[string]func(*Node))
	for _, s := range md.States {
		if s.Entry != nil {
			h, cont := inlineBody(s.Entry, nil, s.Pos)
			entryHead[s.Name] = h
			entryCont[s.Name] = cont
		}
	}
	// enter returns the node that represents entering a state.
	enter := func(state string) *Node {
		if h, ok := entryHead[state]; ok {
			return h
		}
		return hubs[state]
	}
	for _, s := range md.States {
		if cont, ok := entryCont[s.Name]; ok {
			cont(hubs[s.Name])
		}
	}

	link(entry, enter(md.StartState.Name))

	for _, s := range md.States {
		hub := hubs[s.Name]
		events := make([]string, 0, len(s.OnDo)+len(s.OnGoto))
		for e := range s.OnDo {
			events = append(events, e)
		}
		for e := range s.OnGoto {
			events = append(events, e)
		}
		sort.Strings(events)
		for _, e := range events {
			if meth, ok := s.OnDo[e]; ok {
				decl := md.MethodByName[meth]
				var payload *lang.VarDecl
				if len(decl.Params) == 1 {
					payload = decl.Params[0]
				}
				h, cont := inlineBody(decl.Body, payload, decl.Pos)
				link(hub, h)
				cont(hub)
				continue
			}
			target := s.OnGoto[e]
			link(hub, enter(target))
		}
		// A machine can stop receiving in any state.
		link(hub, exit)
	}

	m.CFG = &CFG{Entry: entry, Exit: exit, Nodes: lo.nodes}
	m.index()
	return m
}

// lowerBodyLifted lowers a body using the lowerer's current prefix and
// lifted mode.
func lowerBodyLifted(lo *lowerer, decl *lang.MethodDecl) chain {
	for _, p := range decl.Params {
		if p.Type.IsRef() {
			lo.method.RefVar[lo.local(p.Name)] = true
		}
	}
	declareLocals(decl.Body, lo)
	return lo.lowerStmts(decl.Body)
}
