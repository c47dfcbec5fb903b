package analysis

import (
	"fmt"
	"sort"

	"github.com/psharp-go/psharp/lang"
)

// Violation is one ownership violation: a give-up site (send, create, or a
// call passing an argument the callee gives up) that fails one of the
// respects-ownership conditions of Section 5.3. On race-free programs every
// violation is a false positive; on racy programs at least one is real.
type Violation struct {
	Machine    string
	Method     string
	Pos        lang.Pos
	Give       string // the variable given up
	Event      string // the sent event, if the site is a send
	Conditions []int  // which of conditions 1-3 failed
	Detail     string
	// WritesAfter reports that some use after the give-up may write the
	// payload's region (a field store through a tainted receiver or a call
	// to a writing method on a tainted argument). The read-only extension
	// may only suppress violations where this is false.
	WritesAfter bool
}

func (v Violation) String() string {
	return fmt.Sprintf("%s.%s: %s: ownership of %q violated (conditions %v): %s",
		v.Machine, v.Method, v.Pos, v.Give, v.Conditions, v.Detail)
}

// Options configures Analyze.
type Options struct {
	// XSA enables the cross-state analysis (Section 5.4): machines with
	// violations are re-analyzed on an overarching machine-level CFG with
	// fields lifted to strongly-updated variables.
	XSA bool
	// ReadOnly enables the read-only extension (Section 8): a violating
	// send is suppressed when every handler of the event, across all
	// machines, only reads the payload.
	ReadOnly bool
}

// Result is the outcome of analyzing a program.
type Result struct {
	// Violations are the surviving ownership violations (after xSA and the
	// read-only filter, when enabled).
	Violations []Violation
	// BaseViolations are the violations of the plain per-method analysis,
	// before xSA or read-only filtering (the paper's "No xSA" column).
	BaseViolations []Violation
	// ReadOnlySuppressed counts violations dropped by the read-only filter.
	ReadOnlySuppressed int
}

// Verified reports that the program was proven race-free.
func (r *Result) Verified() bool { return len(r.Violations) == 0 }

// Analyze runs the static data-race analysis on a checked program.
func Analyze(prog *lang.Program, opts Options) *Result {
	return solveBase(prog).check(opts)
}

// GivesUp computes the give-up sets of every method (Figure 5), keyed by
// "Holder.Method", with formal parameter names as values; exported for
// tests and the psharp-analyze tool.
func GivesUp(prog *lang.Program) map[string][]string {
	return solveBase(prog).givesUp()
}

// AnalyzeGivesUp returns what Analyze and GivesUp return, from one solution
// of the base summary fixpoint.
func AnalyzeGivesUp(prog *lang.Program, opts Options) (*Result, map[string][]string) {
	a := solveBase(prog)
	return a.check(opts), a.givesUp()
}

// solveBase builds the base method universe — all class methods, all
// machine methods, and a synthetic method per state entry block — and
// solves it.
func solveBase(prog *lang.Program) *analyzer {
	a := &analyzer{prog: prog, lo: new(lowerer), units: make(map[*lang.MethodDecl]*methodAnalysis)}
	for _, cd := range prog.Classes {
		for _, m := range cd.Methods {
			a.add(a.lo.method(cd.Name, m))
		}
	}
	a.classUnits = len(a.order)
	for _, md := range prog.Machines {
		for _, m := range md.Methods {
			a.add(a.lo.method(md.Name, m))
		}
		for _, s := range md.States {
			if s.Entry != nil {
				a.add(a.lo.method(md.Name, s.EntryMethod))
			}
		}
	}
	a.runFixpoint()
	return a
}

// check evaluates the ownership conditions on the solved base analyzer.
func (a *analyzer) check(opts Options) *Result {
	res := &Result{}
	var flagged []*lang.MachineDecl
	for _, md := range sortedMachines(a.prog) {
		vs := a.checkMachine(md.Name)
		if len(vs) > 0 {
			flagged = append(flagged, md)
		}
		res.BaseViolations = append(res.BaseViolations, vs...)
	}

	final := res.BaseViolations
	if opts.XSA {
		final = nil
		for _, md := range flagged {
			// Re-analyze the machine on its cross-state CFG; only the
			// violations that persist there are reported (xSA is sound, so
			// discarding the others is safe).
			final = append(final, a.crossState(md).checkMachine(md.Name)...)
		}
	}

	if opts.ReadOnly {
		kept := final[:0:0]
		for _, v := range final {
			if v.Event != "" && !v.WritesAfter && a.eventReadOnly(v.Event) {
				res.ReadOnlySuppressed++
				continue
			}
			kept = append(kept, v)
		}
		final = kept
	}
	res.Violations = final
	return res
}

func (a *analyzer) givesUp() map[string][]string {
	out := make(map[string][]string)
	for _, ma := range a.order {
		var params []string
		g := ma.sum.givesUp
		for pos := g.next(1); pos >= 0; pos = g.next(pos + 1) {
			params = append(params, ma.method.Decl.Params[pos-1].Name)
		}
		sort.Strings(params)
		if len(params) > 0 {
			out[ma.method.Holder+"."+ma.method.Name] = params
		}
	}
	return out
}

func sortedMachines(prog *lang.Program) []*lang.MachineDecl {
	out := append([]*lang.MachineDecl(nil), prog.Machines...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// checkMachine runs the respects-ownership conditions over every method the
// analyzer solved for the machine, in name order.
func (a *analyzer) checkMachine(machine string) []Violation {
	var units []*methodAnalysis
	for _, ma := range a.order {
		if ma.method.Holder == machine {
			units = append(units, ma)
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i].method.Name < units[j].method.Name })
	var out []Violation
	for _, ma := range units {
		out = ma.checkMethod(out)
	}
	return out
}

// checkMethod applies conditions 1-3 at every give-up site of the method,
// appending the violations to out.
func (ma *methodAnalysis) checkMethod(out []Violation) []Violation {
	for id := range ma.method.nodes {
		// checkGiveUp's taint pass does not call giveUpVarsAt, so the
		// result stays valid across the loop.
		for _, w := range ma.giveUpVarsAt(&ma.method.nodes[id]) {
			if v, bad := ma.checkGiveUp(id, w); bad {
				out = append(out, v)
			}
		}
	}
	return out
}

// checkGiveUp evaluates the three respects-ownership conditions for giving
// up variable w at node n.
func (ma *methodAnalysis) checkGiveUp(id int, w int32) (Violation, bool) {
	m := ma.method
	n := &m.nodes[id]
	give := ma.reachVarIn(ma.give, id, w)
	if give.empty() {
		return Violation{}, false // provably null payload
	}
	v := Violation{Machine: m.Holder, Method: m.Name, Pos: n.pos(), Give: m.varName(w)}
	if n.op == OpSend {
		v.Event = m.events[n.site]
	}

	// Condition 2 first: w must not be this, and no other variable at the
	// site may alias the given-up region.
	if w == this {
		v.Conditions = append(v.Conditions, 2)
		v.Detail = "the receiver itself is given up"
	} else {
		for _, other := range m.list(n.uses) {
			if other != w && ma.reachVarIn(ma.tmp, id, other).intersects(give) {
				v.Conditions = append(v.Conditions, 2)
				v.Detail = fmt.Sprintf("%q aliases the given-up payload at the give-up site", m.varName(other))
				break
			}
		}
	}

	// Condition 1: the receiver must not reach the given-up region (a later
	// state could access it through a field).
	if w != this && ma.reachVarIn(ma.tmp, id, this).intersects(give) {
		v.Conditions = append(v.Conditions, 1)
		if v.Detail == "" {
			v.Detail = "the machine can still reach the payload through its fields"
		}
	}

	// Condition 3: no variable used on any path after the give-up may still
	// hold the payload. Evaluated with a forward taint pass so that strong
	// updates (and xSA's lifted fields) properly kill stale aliases. The
	// pass also records whether any tainted use is a write, which gates the
	// read-only extension. Only nodes on a path from n get a non-empty
	// taint row, so no separate CFG reachability is needed.
	ma.taintForward(id, give)
	cond3 := false
	for id2 := range m.nodes {
		n2, tset := &m.nodes[id2], ma.taintRow(id2)
		if tset.empty() {
			continue
		}
		for _, used := range m.list(n2.uses) {
			if tset.has(int(used)) {
				if !cond3 {
					cond3 = true
					v.Conditions = append(v.Conditions, 3)
					if v.Detail == "" {
						v.Detail = fmt.Sprintf("%q is used at %s after the payload was given up", m.varName(used), n2.pos())
					}
				}
				break
			}
		}
		if ma.isWritingUse(n2, tset) {
			v.WritesAfter = true
		}
	}

	if len(v.Conditions) == 0 {
		return Violation{}, false
	}
	sort.Ints(v.Conditions)
	return v, true
}

func (ma *methodAnalysis) taintRow(id int) bitset {
	vw := len(ma.taintOut)
	return ma.taint[id*vw : (id+1)*vw]
}

// taintForward propagates "holds given-up data" forward from node n, where
// the seed is every variable whose reachable region overlaps give. Strong
// assignments kill taint; stores taint this (member-insensitively); calls
// propagate through summaries. Leaves taint-at-entry per node in ma.taint.
// The transfer function is monotone and maps no taint to no taint, so
// propagating on change alone reaches the least fixpoint.
func (ma *methodAnalysis) taintForward(from int, give bitset) {
	m := ma.method
	if ma.taint == nil {
		vw := words(len(m.vars))
		ma.taint = make([]uint64, (len(m.nodes)+1)*vw)
		ma.taint, ma.taintOut = ma.taint[vw:], ma.taint[:vw:vw]
	}
	clear(ma.taint)
	seed := ma.taintOut
	clear(seed)
	for v := range m.vars {
		if ma.reachVarIn(ma.tmp, from, int32(v)).intersects(give) {
			seed.set(v)
		}
	}
	// The seed applies at the exit of the node, i.e. at the entry of its succs.
	again := false
	for _, s := range m.succs(&m.nodes[from]) {
		if ma.taintRow(int(s)).or(seed) {
			ma.dirty[s], again = true, true
		}
	}
	for again {
		again = false
		for id := range m.nodes {
			if !ma.dirty[id] {
				continue
			}
			ma.dirty[id] = false
			cur := &m.nodes[id]
			out := ma.taintTransfer(cur, ma.taintRow(id))
			for _, s := range m.succs(cur) {
				if ma.taintRow(int(s)).or(out) {
					ma.dirty[s] = true
					again = again || int(s) <= id
				}
			}
		}
	}
}

// taintTransfer applies one instruction to a taint set; the result is valid
// until the next call.
func (ma *methodAnalysis) taintTransfer(x *node, in bitset) bitset {
	out := ma.taintOut
	copy(out, in)
	if x.dst >= 0 {
		// A strong update: whatever the destination held is gone.
		out.unset(int(x.dst))
	}
	tainted := func(v int32) bool { return v >= 0 && in.has(int(v)) }
	switch x.op {
	case OpAssign:
		if x.dst >= 0 && tainted(x.src) {
			out.set(int(x.dst))
		}
	case OpLoad:
		if x.dst >= 0 && in.has(this) {
			out.set(int(x.dst))
		}
	case OpStore:
		if tainted(x.src) {
			out.set(this)
		}
	case OpCall:
		argv, callee := ma.method.argv(x), ma.callees[x.site]
		if callee == nil {
			// Unknown callee: taint spreads to everything involved.
			any := false
			for _, v := range argv {
				any = any || tainted(v)
			}
			if any {
				for _, v := range argv {
					if v >= 0 {
						out.set(int(v))
					}
				}
				if x.dst >= 0 {
					out.set(int(x.dst))
				}
			}
			break
		}
		sum := &callee.sum
		for from := 0; from < sum.np; from++ {
			if argv[from] < 0 {
				continue
			}
			links := sum.linkRow(from)
			for to := links.next(0); to >= 0; to = links.next(to + 1) {
				if tainted(argv[to]) {
					out.set(int(argv[from]))
				}
			}
		}
		if x.dst >= 0 {
			for pos := sum.ret.next(0); pos >= 0; pos = sum.ret.next(pos + 1) {
				if tainted(argv[pos]) {
					out.set(int(x.dst))
				}
			}
		}
	}
	return out
}

// isWritingUse reports whether node n may write the region held by a
// tainted variable: a field store through a tainted receiver, or a call
// whose writing position is bound to a tainted variable.
func (ma *methodAnalysis) isWritingUse(x *node, tainted bitset) bool {
	switch x.op {
	case OpStore:
		return tainted.has(this)
	case OpCall:
		argv, callee := ma.method.argv(x), ma.callees[x.site]
		if callee == nil {
			// Unknown callee: assume it writes whatever it can reach.
			for _, v := range argv {
				if v >= 0 && tainted.has(int(v)) {
					return true
				}
			}
			return false
		}
		w := callee.sum.writes
		for pos := w.next(0); pos >= 0; pos = w.next(pos + 1) {
			if v := argv[pos]; v >= 0 && tainted.has(int(v)) {
				return true
			}
		}
	}
	return false
}

// eventReadOnly reports whether every handler of the event, across every
// machine, only reads its payload: the payload parameter is neither written
// (directly or through callees) nor stored into the receiving machine's
// fields (which would allow writes in later states).
func (a *analyzer) eventReadOnly(event string) bool {
	for _, md := range a.prog.Machines {
		for _, s := range md.States {
			meth, ok := s.OnDo[event]
			if !ok {
				continue
			}
			decl := md.MethodByName[meth]
			if decl == nil || len(decl.Params) == 0 || decl.Params[0].Type.IsScalar() {
				continue // no payload access at all
			}
			// Written, or stored into machine state?
			sum := &a.units[decl].sum
			if sum.writes.has(1) || sum.linkRow(0).has(1) {
				return false
			}
		}
		// Transitions deliver the payload to entry blocks, which cannot
		// access payloads in this language; they are read-only by
		// construction.
	}
	return true
}
