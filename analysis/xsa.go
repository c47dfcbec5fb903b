package analysis

import (
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
	x := &analyzer{prog: a.prog, lo: a.lo, units: make(map[*lang.MethodDecl]*methodAnalysis, a.classUnits+len(md.Methods))}
	for _, u := range a.order[:a.classUnits] {
		x.units[u.method.Decl] = u
	}
	handlerNames := make(map[string]bool)
	for _, s := range md.States {
		for _, meth := range s.OnDo {
			handlerNames[meth] = true
		}
	}
	for _, m := range md.Methods {
		if !handlerNames[m.Name] {
			x.add(a.units[m].method)
		}
	}
	x.add(a.lo.machine(md))
	x.runFixpoint()
	return x
}

// machine builds the cross-state analysis form of a machine (Section 5.4):
// one overarching CFG in which every state's entry block and every bound
// handler is inlined, the end of each handler leads to the hub of the
// (possibly new) state — "at the end of each method representing a state we
// non-deterministically call one of the methods representing an immediate
// successor state" — and machine fields are lifted to machine-level
// variables ("$f") with strong updates, which is what lets a reset like
// `this.f := null;` after a send discharge the staged-payload false
// positives (paper Example 5.5).
//
// Handler payloads are modeled as fresh unknown regions, one abstract
// object per inlined handler copy.
func (lo *lowerer) machine(md *lang.MachineDecl) *Method {
	lo.begin(&Method{Holder: md.Name, Name: "$machine"}, true)
	lo.fields = lo.fields[:0]
	for range md.Fields {
		lo.fields = append(lo.fields, -1)
	}
	entry := lo.emit(nil, OpNop, md.Pos, -1, -1, span{})
	exit := lo.emit(nil, OpNop, md.Pos, -1, -1, span{})

	// One hub node per state; control returns to a hub after each handler.
	// enter is the node that represents entering a state: the head of its
	// inlined entry block if it has one, its hub if not.
	hub0 := int32(len(lo.nodes))
	enter := make(map[string]int32, len(md.States))
	for _, s := range md.States {
		enter[s.Name] = lo.emit(nil, OpNop, s.Pos, -1, -1, span{})
	}
	for i, s := range md.States {
		if s.Entry != nil {
			enter[s.Name] = lo.inline(s.EntryMethod, hub0+int32(i))
		}
	}
	lo.link(entry, enter[md.StartState.Name])

	var events []string
	for i, s := range md.States {
		hub := hub0 + int32(i)
		events = events[:0]
		for e := range s.OnDo {
			events = append(events, e)
		}
		for e := range s.OnGoto {
			events = append(events, e)
		}
		sort.Strings(events)
		from := int32(len(lo.fanout))
		for _, e := range events {
			to := enter[s.OnGoto[e]]
			if meth, ok := s.OnDo[e]; ok {
				to = lo.inline(md.MethodByName[meth], hub)
			}
			lo.fanout = append(lo.fanout, to)
		}
		// A machine can stop receiving in any state.
		lo.fanout = append(lo.fanout, exit)
		for _, to := range lo.fanout[from:] {
			lo.nodes[to].preds++
		}
		lo.nodes[hub].fan, lo.nodes[hub].succ = true, [2]int32{from, int32(len(lo.fanout))}
	}
	return lo.finish()
}

// inline lowers a body (an entry block, or a handler with its payload
// parameter if it takes one) as the next copy, with locals and temps of its
// own, leads its end and its returns on to next, and returns its head.
func (lo *lowerer) inline(decl *lang.MethodDecl, next int32) int32 {
	lo.copy++
	first := len(lo.nodes)
	lo.bind(decl)
	c := empty
	if len(decl.Params) == 1 {
		// The payload is an unknown region owned by this machine from the
		// moment the handler starts (paper: "an action assumes ownership of
		// any payload it receives").
		lo.emit(&c, OpNew, decl.Pos, lo.slots[0], -1, span{})
	}
	lo.append(&c, lo.lowerStmts(decl.Body))
	if c.head < 0 {
		lo.emit(&c, OpNop, decl.Pos, -1, -1, span{})
	}
	if c.tail >= 0 {
		lo.link(c.tail, next)
	}
	lo.linkReturns(first, len(lo.nodes), next)
	return c.head
}
