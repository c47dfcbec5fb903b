package analysis

// The reference engine: the map-of-maps abstract domain and the naive
// solver the dense implementation in reach.go and ownership.go replaced,
// kept verbatim (identifiers prefixed ref) as a test-only oracle. Every
// method is re-solved from nothing by chaotic iteration on every round of
// the summary loop until a round changes no summary; points-to states are
// map[string]map[refObj]bool cloned at every transfer; every xSA pass lowers
// and solves every class method again. It shares only the IR (BuildMethod,
// buildMachineCFG) with the code under test. FuzzAnalyzeDifferential holds
// the two to the same Result and give-up map on any program that parses and
// checks.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/psharp-go/psharp/lang"
)

// usedRefVars returns the reference-typed variables the instruction reads
// (the paper's vars(N) restricted to reference variables, minus the pure
// assignment target: overwriting a variable is a kill, not a use). The
// receiver participates in loads and stores.
func (in Instr) usedRefVars(isRef func(string) bool) []string {
	var out []string
	add := func(v string) {
		if v != "" && isRef(v) {
			out = append(out, v)
		}
	}
	add(in.Src)
	add(in.Recv)
	for _, a := range in.Args {
		add(a)
	}
	for _, u := range in.Uses {
		add(u)
	}
	switch in.Op {
	case OpLoad, OpStore:
		add("this")
	}
	return out
}

// refObjKind classifies abstract heap objects. Member insensitivity (paper
// Section 5.1: "we taint the whole object instead") means one abstract node
// stands for the entire region reachable from its source.
type refObjKind int

const (
	refObjParam refObjKind = iota // the region reachable from a formal parameter at entry
	refObjThis                    // the region reachable from the receiver
	refObjAlloc                   // an allocation site
)

// refObj is an abstract heap object.
type refObj struct {
	kind refObjKind
	idx  int // parameter index, or allocating node ID
}

// refObjSet is a small set of abstract objects.
type refObjSet map[refObj]bool

func (s refObjSet) clone() refObjSet {
	out := make(refObjSet, len(s))
	for o := range s {
		out[o] = true
	}
	return out
}

func (s refObjSet) addAll(other refObjSet) bool {
	changed := false
	for o := range other {
		if !s[o] {
			s[o] = true
			changed = true
		}
	}
	return changed
}

func (s refObjSet) intersects(other refObjSet) bool {
	for o := range s {
		if other[o] {
			return true
		}
	}
	return false
}

// Positions in method summaries: parameters are 0..n-1.
const (
	refPosThis = -1
)

// refSummary is a method's modular abstraction (the paper's taint summary
// plus the gives-up and writes sets).
type refSummary struct {
	// Links[i] lists positions whose objects may become reachable from
	// position i's object after the call (containment i -> j).
	Links map[int]map[int]bool
	// RetSources lists positions the return value may reach; RetFresh says
	// the return value may be a fresh allocation.
	RetSources map[int]bool
	RetFresh   bool
	// GivesUp marks parameter positions whose ownership the method
	// transfers away (Figure 5); refPosThis is possible too.
	GivesUp map[int]bool
	// Writes marks positions whose object may have a field written
	// (transitively); used by the read-only extension.
	Writes map[int]bool
}

func newRefSummary() *refSummary {
	return &refSummary{
		Links:      make(map[int]map[int]bool),
		RetSources: make(map[int]bool),
		GivesUp:    make(map[int]bool),
		Writes:     make(map[int]bool),
	}
}

func (s *refSummary) link(from, to int) bool {
	m, ok := s.Links[from]
	if !ok {
		m = make(map[int]bool)
		s.Links[from] = m
	}
	if m[to] {
		return false
	}
	m[to] = true
	return true
}

// refVarPts maps variables to their points-to sets at a program point.
type refVarPts map[string]refObjSet

func (p refVarPts) clone() refVarPts {
	out := make(refVarPts, len(p))
	for v, s := range p {
		out[v] = s.clone()
	}
	return out
}

func (p refVarPts) get(v string) refObjSet {
	if s, ok := p[v]; ok {
		return s
	}
	return nil
}

// joinInto merges other into p; reports change.
func (p refVarPts) joinInto(other refVarPts) bool {
	changed := false
	for v, s := range other {
		cur, ok := p[v]
		if !ok {
			p[v] = s.clone()
			changed = true
			continue
		}
		if cur.addAll(s) {
			changed = true
		}
	}
	return changed
}

// refMethodAnalysis is the per-method dataflow result.
type refMethodAnalysis struct {
	method *Method
	// in/out points-to states per node ID.
	in, out map[int]refVarPts
	// contains is the monotone containment relation over abstract objects
	// accumulated for this method (member-insensitive heap edges).
	contains map[refObj]refObjSet
	// containsEdges counts edges in contains, for fixpoint detection.
	containsEdges int
}

// reach closes a points-to set under containment.
func (ma *refMethodAnalysis) reach(s refObjSet) refObjSet {
	out := make(refObjSet)
	var stack []refObj
	for o := range s {
		out[o] = true
		stack = append(stack, o)
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := range ma.contains[o] {
			if !out[c] {
				out[c] = true
				stack = append(stack, c)
			}
		}
	}
	return out
}

// reachVarIn returns the closure of v's points-to set on entry to node id.
func (ma *refMethodAnalysis) reachVarIn(id int, v string) refObjSet {
	return ma.reach(ma.in[id].get(v))
}

// refAnalyzer drives the whole-program summary fixpoint.
type refAnalyzer struct {
	prog    *lang.Program
	methods map[string]*Method // key: Holder.Name
	summary map[string]*refSummary
	results map[string]*refMethodAnalysis
}

func (a *refAnalyzer) methodOf(holder, name string) *Method {
	return a.methods[holder+"."+name]
}

func (a *refAnalyzer) summaryOf(holder, name string) *refSummary {
	s, ok := a.summary[holder+"."+name]
	if !ok {
		s = newRefSummary()
		a.summary[holder+"."+name] = s
	}
	return s
}

// analyzeMethod runs the flow-sensitive points-to pass for one method and
// returns whether its summary changed (for the global fixpoint).
func (a *refAnalyzer) analyzeMethod(m *Method) bool {
	ma := &refMethodAnalysis{
		method:   m,
		in:       make(map[int]refVarPts),
		out:      make(map[int]refVarPts),
		contains: make(map[refObj]refObjSet),
	}
	a.results[m.QName()] = ma

	init := make(refVarPts)
	init["this"] = refObjSet{refObj{kind: refObjThis}: true}
	for i, p := range m.Params {
		if m.IsRef(p) {
			init[p] = refObjSet{refObj{kind: refObjParam, idx: i}: true}
		}
	}
	// In xSA mode, machine-level field variables start as fresh unknown
	// regions (distinct abstract objects), modeling arbitrary prior state.
	for v, isRef := range m.RefVar {
		if isRef && len(v) > 0 && v[0] == '$' {
			init[v] = refObjSet{refObj{kind: refObjParam, idx: refFieldParamIndex(m, v)}: true}
		}
	}

	// Chaotic iteration to a fixpoint. Everything is monotone: points-to
	// sets and the containment relation only grow, so termination follows
	// from the finite abstract-object universe. Containment growth must
	// re-trigger transfer (OpLoad reads reach(this)), which plain worklist
	// scheduling on state change alone would miss.
	ma.in[m.CFG.Entry.ID] = init
	for changed := true; changed; {
		changed = false
		for _, n := range m.CFG.Nodes {
			inState, ok := ma.in[n.ID]
			if !ok {
				if n != m.CFG.Entry && len(n.Preds) == 0 {
					continue // unreachable
				}
				inState = make(refVarPts)
				ma.in[n.ID] = inState
			}
			for _, p := range n.Preds {
				if po, ok := ma.out[p.ID]; ok {
					if inState.joinInto(po) {
						changed = true
					}
				}
			}
			before := ma.containsEdges
			newOut := a.transfer(ma, n, inState)
			if ma.containsEdges != before {
				changed = true
			}
			oldOut, had := ma.out[n.ID]
			if !had {
				ma.out[n.ID] = newOut
				changed = true
			} else if oldOut.joinInto(newOut) {
				changed = true
			}
		}
	}
	return a.updateSummary(m, ma)
}

// refFieldParamIndex gives each machine-level field variable a stable
// parameter-like abstract object index (negative, below refPosThis).
func refFieldParamIndex(m *Method, v string) int {
	names := make([]string, 0, len(m.RefVar))
	for name := range m.RefVar {
		if len(name) > 0 && name[0] == '$' {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for i, name := range names {
		if name == v {
			return -10 - i
		}
	}
	return -10
}

// transfer applies one instruction.
func (a *refAnalyzer) transfer(ma *refMethodAnalysis, n *Node, in refVarPts) refVarPts {
	out := in.clone()
	ins := n.Instr
	setStrong := func(dst string, s refObjSet) {
		if dst == "" {
			return
		}
		out[dst] = s
	}
	switch ins.Op {
	case OpAssign:
		if ma.method.IsRef(ins.Dst) {
			setStrong(ins.Dst, out.get(ins.Src).clone())
		}
	case OpConst:
		if ma.method.IsRef(ins.Dst) {
			setStrong(ins.Dst, make(refObjSet))
		}
	case OpLoad:
		if ma.method.IsRef(ins.Dst) {
			// Member-insensitive: a field load yields the whole region
			// reachable from the receiver.
			setStrong(ins.Dst, ma.reach(out.get("this")))
		}
	case OpStore:
		src := out.get(ins.Src)
		for o := range out.get("this") {
			a.contain(ma, o, src)
		}
	case OpNew:
		setStrong(ins.Dst, refObjSet{refObj{kind: refObjAlloc, idx: n.ID}: true})
	case OpCall:
		a.transferCall(ma, n, out)
	case OpSend, OpCreate:
		// Ownership transfer is checked separately; no points-to effect.
		if ins.Op == OpCreate && ins.Dst != "" && ma.method.IsRef(ins.Dst) {
			setStrong(ins.Dst, make(refObjSet))
		}
	}
	return out
}

func (a *refAnalyzer) contain(ma *refMethodAnalysis, container refObj, contents refObjSet) {
	cur, ok := ma.contains[container]
	if !ok {
		cur = make(refObjSet)
		ma.contains[container] = cur
	}
	for o := range contents {
		if o != container && !cur[o] {
			cur[o] = true
			ma.containsEdges++
		}
	}
}

// transferCall applies a callee summary at a call site.
func (a *refAnalyzer) transferCall(ma *refMethodAnalysis, n *Node, out refVarPts) {
	ins := n.Instr
	callee := a.methodOf(ins.Class, ins.Method)
	argOf := func(pos int) string {
		if pos == refPosThis {
			return ins.Recv
		}
		if pos >= 0 && pos < len(ins.Args) {
			return ins.Args[pos]
		}
		return ""
	}
	if callee == nil {
		// Unknown callee (paper Section 5.4: library calls are handled
		// conservatively — everything reachable becomes mutually reachable).
		all := make(refObjSet)
		vars := append([]string{ins.Recv}, ins.Args...)
		for _, v := range vars {
			all.addAll(ma.reach(out.get(v)))
		}
		for o := range all {
			a.contain(ma, o, all)
		}
		if ins.Dst != "" && ma.method.IsRef(ins.Dst) {
			s := all.clone()
			s[refObj{kind: refObjAlloc, idx: n.ID}] = true
			out[ins.Dst] = s
		}
		return
	}
	sum := a.summaryOf(ins.Class, ins.Method)
	for from, tos := range sum.Links {
		fromSet := out.get(argOf(from))
		for to := range tos {
			toReach := ma.reach(out.get(argOf(to)))
			for o := range fromSet {
				a.contain(ma, o, toReach)
			}
		}
	}
	if ins.Dst != "" && ma.method.IsRef(ins.Dst) {
		s := make(refObjSet)
		for pos := range sum.RetSources {
			s.addAll(ma.reach(out.get(argOf(pos))))
		}
		if sum.RetFresh {
			s[refObj{kind: refObjAlloc, idx: n.ID}] = true
		}
		out[ins.Dst] = s
	}
}

// updateSummary recomputes m's summary from the analysis result; returns
// whether it grew.
func (a *refAnalyzer) updateSummary(m *Method, ma *refMethodAnalysis) bool {
	sum := a.summaryOf(m.Holder, m.Name)
	changed := false
	exitID := m.CFG.Exit.ID

	posOf := func(o refObj) (int, bool) {
		switch o.kind {
		case refObjThis:
			return refPosThis, true
		case refObjParam:
			if o.idx >= 0 {
				return o.idx, true
			}
		}
		return 0, false
	}

	// Links: position i reaches position j's object at exit.
	exitState := ma.out[exitID]
	if exitState == nil {
		exitState = ma.in[exitID]
	}
	srcSets := map[int]refObjSet{refPosThis: ma.reach(refObjSet{refObj{kind: refObjThis}: true})}
	for i := range m.Params {
		srcSets[i] = ma.reach(refObjSet{refObj{kind: refObjParam, idx: i}: true})
	}
	for i, reachSet := range srcSets {
		for o := range reachSet {
			if j, ok := posOf(o); ok && j != i {
				if sum.link(i, j) {
					changed = true
				}
			}
		}
	}

	// Return sources.
	for _, n := range m.CFG.Nodes {
		if n.Instr.Op != OpReturn || n.Instr.Src == "" || !m.IsRef(n.Instr.Src) {
			continue
		}
		for o := range ma.reachVarIn(n.ID, n.Instr.Src) {
			if pos, ok := posOf(o); ok {
				if !sum.RetSources[pos] {
					sum.RetSources[pos] = true
					changed = true
				}
			} else if !sum.RetFresh {
				sum.RetFresh = true
				changed = true
			}
		}
	}

	// Writes: a field store writes this's region; calls propagate callee
	// writes onto whatever the written argument can reach.
	markWrite := func(s refObjSet) {
		for o := range s {
			if pos, ok := posOf(o); ok {
				if !sum.Writes[pos] {
					sum.Writes[pos] = true
					changed = true
				}
			}
		}
	}
	for _, n := range m.CFG.Nodes {
		switch n.Instr.Op {
		case OpStore:
			markWrite(ma.reachVarIn(n.ID, "this"))
		case OpCall:
			callee := a.summaryOf(n.Instr.Class, n.Instr.Method)
			if a.methodOf(n.Instr.Class, n.Instr.Method) == nil {
				// Unknown callee: assume it writes everything it can reach.
				markWrite(ma.reachVarIn(n.ID, n.Instr.Recv))
				for _, arg := range n.Instr.Args {
					markWrite(ma.reachVarIn(n.ID, arg))
				}
				continue
			}
			for pos := range callee.Writes {
				v := n.Instr.Recv
				if pos >= 0 && pos < len(n.Instr.Args) {
					v = n.Instr.Args[pos]
				}
				markWrite(ma.reachVarIn(n.ID, v))
			}
		}
	}

	// GivesUp (Figure 5): a send (or create, or call to a method that gives
	// up the corresponding formal) gives up every position whose entry
	// object is in the payload's reachable region.
	markGiveUp := func(s refObjSet) {
		for o := range s {
			if pos, ok := posOf(o); ok {
				if !sum.GivesUp[pos] {
					sum.GivesUp[pos] = true
					changed = true
				}
			}
		}
	}
	for _, n := range m.CFG.Nodes {
		for _, gv := range a.giveUpVarsAt(n) {
			if gv == "" || !m.IsRef(gv) {
				continue
			}
			markGiveUp(ma.reachVarIn(n.ID, gv))
		}
	}
	return changed
}

// giveUpVarsAt returns the variables whose ownership node n transfers away:
// the payload of a send/create, and every argument passed for a formal in
// the callee's give-up set.
func (a *refAnalyzer) giveUpVarsAt(n *Node) []string {
	ins := n.Instr
	switch ins.Op {
	case OpSend, OpCreate:
		if ins.Src != "" {
			return []string{ins.Src}
		}
	case OpCall:
		if a.methodOf(ins.Class, ins.Method) == nil {
			return nil // unknown callees handled conservatively elsewhere
		}
		sum := a.summaryOf(ins.Class, ins.Method)
		var out []string
		for pos := range sum.GivesUp {
			if pos == refPosThis {
				out = append(out, ins.Recv)
			} else if pos >= 0 && pos < len(ins.Args) {
				out = append(out, ins.Args[pos])
			}
		}
		sort.Strings(out)
		return out
	}
	return nil
}

// runFixpoint computes all summaries to a global fixpoint (methods may be
// mutually recursive; Figure 5's outer repeat loop).
func (a *refAnalyzer) runFixpoint() {
	names := make([]string, 0, len(a.methods))
	for name := range a.methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for {
		changed := false
		for _, name := range names {
			if a.analyzeMethod(a.methods[name]) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// Analyze runs the static data-race analysis on a checked program.
func refAnalyze(prog *lang.Program, opts Options) *Result {
	a := newRefAnalyzer(prog, false)
	a.runFixpoint()

	res := &Result{}
	perMachine := make(map[string][]Violation)
	for _, md := range sortedMachines(prog) {
		vs := a.checkMachine(md.Name)
		perMachine[md.Name] = vs
		res.BaseViolations = append(res.BaseViolations, vs...)
	}

	final := res.BaseViolations
	if opts.XSA {
		final = nil
		for _, md := range sortedMachines(prog) {
			if len(perMachine[md.Name]) == 0 {
				continue
			}
			// Re-analyze the machine on its cross-state CFG; only the
			// violations that persist there are reported (xSA is sound, so
			// discarding the others is safe).
			x := newRefAnalyzer(prog, true)
			x.installMachineCFG(md)
			x.runFixpoint()
			final = append(final, x.checkMachine(md.Name)...)
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

// GivesUp computes the give-up sets of every method (Figure 5), keyed by
// "Holder.Method", with formal parameter names as values; exported for
// tests and the psharp-analyze tool.
func refGivesUp(prog *lang.Program) map[string][]string {
	a := newRefAnalyzer(prog, false)
	a.runFixpoint()
	out := make(map[string][]string)
	for name, m := range a.methods {
		sum := a.summaryOf(m.Holder, m.Name)
		var params []string
		for pos := range sum.GivesUp {
			if pos >= 0 && pos < len(m.Params) {
				params = append(params, m.Params[pos])
			}
		}
		sort.Strings(params)
		if len(params) > 0 {
			out[name] = params
		}
	}
	return out
}

// newRefAnalyzer builds the method universe: all class methods, all machine
// methods, and a synthetic method per state entry block. In lifted mode the
// machine methods are replaced later by installMachineCFG.
func newRefAnalyzer(prog *lang.Program, lifted bool) *refAnalyzer {
	a := &refAnalyzer{
		prog:    prog,
		methods: make(map[string]*Method),
		summary: make(map[string]*refSummary),
		results: make(map[string]*refMethodAnalysis),
	}
	for _, cd := range prog.Classes {
		for _, m := range cd.Methods {
			mm := BuildMethod(prog, cd.Name, m)
			a.methods[mm.QName()] = mm
		}
	}
	if !lifted {
		for _, md := range prog.Machines {
			for _, m := range md.Methods {
				mm := BuildMethod(prog, md.Name, m)
				a.methods[mm.QName()] = mm
			}
			for _, s := range md.States {
				if s.Entry != nil {
					decl := &lang.MethodDecl{Name: "$entry_" + s.Name, Body: s.Entry, Pos: s.Pos}
					mm := BuildMethod(prog, md.Name, decl)
					a.methods[mm.QName()] = mm
				}
			}
		}
	}
	return a
}

// installMachineCFG adds the cross-state form of a machine: its helper
// methods (not bound to any event), lowered again, and the machine-level
// CFG.
func (a *refAnalyzer) installMachineCFG(md *lang.MachineDecl) {
	handlerNames := make(map[string]bool)
	for _, s := range md.States {
		for _, meth := range s.OnDo {
			handlerNames[meth] = true
		}
	}
	for _, m := range md.Methods {
		if !handlerNames[m.Name] {
			mm := BuildMethod(a.prog, md.Name, m)
			a.methods[mm.QName()] = mm
		}
	}
	m := buildMachineCFG(a.prog, md)
	a.methods[m.QName()] = m
}

// checkMachine runs the respects-ownership conditions over every analyzed
// method belonging to the machine.
func (a *refAnalyzer) checkMachine(machine string) []Violation {
	var out []Violation
	names := make([]string, 0, len(a.methods))
	for name, m := range a.methods {
		if m.Holder == machine {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, a.checkMethod(a.methods[name])...)
	}
	return out
}

// checkMethod applies conditions 1-3 at every give-up site of the method.
func (a *refAnalyzer) checkMethod(m *Method) []Violation {
	ma := a.results[m.QName()]
	if ma == nil {
		return nil
	}
	var out []Violation
	reachable := refCFGReachability(m.CFG)
	for _, n := range m.CFG.Nodes {
		for _, w := range a.giveUpVarsAt(n) {
			if w == "" || !m.IsRef(w) {
				continue
			}
			if v, bad := a.checkGiveUp(m, ma, n, w, reachable); bad {
				out = append(out, v)
			}
		}
	}
	return out
}

// checkGiveUp evaluates the three respects-ownership conditions for giving
// up variable w at node n.
func (a *refAnalyzer) checkGiveUp(m *Method, ma *refMethodAnalysis, n *Node, w string, reachable map[int]map[int]bool) (Violation, bool) {
	give := ma.reachVarIn(n.ID, w)
	if len(give) == 0 {
		return Violation{}, false // provably null payload
	}
	v := Violation{
		Machine: m.Holder,
		Method:  m.Name,
		Pos:     n.Instr.Pos,
		Give:    w,
		Event:   n.Instr.Event,
	}

	// Condition 2 first: w must not be this, and no other variable at the
	// site may alias the given-up region.
	if w == "this" {
		v.Conditions = append(v.Conditions, 2)
		v.Detail = "the receiver itself is given up"
	} else {
		for _, other := range n.Instr.usedRefVars(m.IsRef) {
			if other == w {
				continue
			}
			if ma.reachVarIn(n.ID, other).intersects(give) {
				v.Conditions = append(v.Conditions, 2)
				v.Detail = fmt.Sprintf("%q aliases the given-up payload at the give-up site", other)
				break
			}
		}
	}

	// Condition 1: the receiver must not reach the given-up region (a later
	// state could access it through a field).
	if w != "this" && ma.reachVarIn(n.ID, "this").intersects(give) {
		v.Conditions = append(v.Conditions, 1)
		if v.Detail == "" {
			v.Detail = "the machine can still reach the payload through its fields"
		}
	}

	// Condition 3: no variable used on any path after the give-up may still
	// hold the payload. Evaluated with a forward taint pass so that strong
	// updates (and xSA's lifted fields) properly kill stale aliases. The
	// pass also records whether any tainted use is a write, which gates the
	// read-only extension.
	taint := a.taintForward(m, ma, n, give)
	cond3 := false
	for _, n2 := range m.CFG.Nodes {
		if !reachable[n.ID][n2.ID] {
			continue
		}
		tset := taint[n2.ID]
		if len(tset) == 0 {
			continue
		}
		for _, used := range n2.Instr.usedRefVars(m.IsRef) {
			if tset[used] {
				if !cond3 {
					cond3 = true
					v.Conditions = append(v.Conditions, 3)
					if v.Detail == "" {
						v.Detail = fmt.Sprintf("%q is used at %s after the payload was given up", used, n2.Instr.Pos)
					}
				}
				break
			}
		}
		if a.isWritingUse(m, n2, tset) {
			v.WritesAfter = true
		}
	}

	if len(v.Conditions) == 0 {
		return Violation{}, false
	}
	sort.Ints(v.Conditions)
	return v, true
}

// taintForward propagates "holds given-up data" forward from node n, where
// the seed is every variable whose reachable region overlaps give. Strong
// assignments kill taint; stores taint this (member-insensitively); calls
// propagate through summaries. Returns taint-at-entry per node.
func (a *refAnalyzer) taintForward(m *Method, ma *refMethodAnalysis, n *Node, give refObjSet) map[int]map[string]bool {
	seed := make(map[string]bool)
	for v := range ma.in[n.ID] {
		if !m.IsRef(v) {
			continue
		}
		if ma.reachVarIn(n.ID, v).intersects(give) {
			seed[v] = true
		}
	}
	taintIn := make(map[int]map[string]bool)
	// The seed applies at the exit of n, i.e. at the entry of its succs.
	work := make([]*Node, 0, len(n.Succs))
	for _, s := range n.Succs {
		taintIn[s.ID] = refCloneSet(seed)
		work = append(work, s)
	}
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		out := a.taintTransfer(m, ma, cur, taintIn[cur.ID])
		for _, s := range cur.Succs {
			dst, ok := taintIn[s.ID]
			if !ok {
				taintIn[s.ID] = refCloneSet(out)
				work = append(work, s)
				continue
			}
			changed := false
			for v := range out {
				if !dst[v] {
					dst[v] = true
					changed = true
				}
			}
			if changed {
				work = append(work, s)
			}
		}
	}
	return taintIn
}

func refCloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// taintTransfer applies one instruction to a taint set.
func (a *refAnalyzer) taintTransfer(m *Method, ma *refMethodAnalysis, n *Node, in map[string]bool) map[string]bool {
	out := refCloneSet(in)
	ins := n.Instr
	switch ins.Op {
	case OpAssign:
		if m.IsRef(ins.Dst) {
			if in[ins.Src] {
				out[ins.Dst] = true
			} else {
				delete(out, ins.Dst)
			}
		}
	case OpConst, OpNew:
		delete(out, ins.Dst)
	case OpLoad:
		if in["this"] {
			out[ins.Dst] = true
		} else {
			delete(out, ins.Dst)
		}
	case OpStore:
		if in[ins.Src] {
			out["this"] = true
		}
	case OpCreate:
		delete(out, ins.Dst)
	case OpCall:
		callee := a.methodOf(ins.Class, ins.Method)
		argOf := func(pos int) string {
			if pos == refPosThis {
				return ins.Recv
			}
			if pos >= 0 && pos < len(ins.Args) {
				return ins.Args[pos]
			}
			return ""
		}
		if callee == nil {
			// Unknown callee: taint spreads to everything involved.
			any := in[ins.Recv]
			for _, arg := range ins.Args {
				if in[arg] {
					any = true
				}
			}
			if any {
				out[ins.Recv] = true
				for _, arg := range ins.Args {
					if m.IsRef(arg) {
						out[arg] = true
					}
				}
				if ins.Dst != "" && m.IsRef(ins.Dst) {
					out[ins.Dst] = true
				}
			} else if ins.Dst != "" {
				delete(out, ins.Dst)
			}
			break
		}
		sum := a.summaryOf(ins.Class, ins.Method)
		for from, tos := range sum.Links {
			for to := range tos {
				if in[argOf(to)] && argOf(from) != "" && m.IsRef(argOf(from)) {
					out[argOf(from)] = true
				}
			}
		}
		if ins.Dst != "" && m.IsRef(ins.Dst) {
			tainted := false
			for pos := range sum.RetSources {
				if in[argOf(pos)] {
					tainted = true
				}
			}
			if tainted {
				out[ins.Dst] = true
			} else {
				delete(out, ins.Dst)
			}
		}
	}
	return out
}

// isWritingUse reports whether node n may write the region held by a
// tainted variable: a field store through a tainted receiver, or a call
// whose writing position is bound to a tainted variable.
func (a *refAnalyzer) isWritingUse(m *Method, n *Node, tainted map[string]bool) bool {
	ins := n.Instr
	switch ins.Op {
	case OpStore:
		return tainted["this"]
	case OpCall:
		callee := a.methodOf(ins.Class, ins.Method)
		if callee == nil {
			// Unknown callee: assume it writes whatever it can reach.
			if tainted[ins.Recv] {
				return true
			}
			for _, arg := range ins.Args {
				if tainted[arg] {
					return true
				}
			}
			return false
		}
		sum := a.summaryOf(ins.Class, ins.Method)
		for pos := range sum.Writes {
			v := ins.Recv
			if pos >= 0 && pos < len(ins.Args) {
				v = ins.Args[pos]
			}
			if tainted[v] {
				return true
			}
		}
	}
	return false
}

// refCFGReachability computes can-reach-via-at-least-one-edge per node pair.
func refCFGReachability(cfg *CFG) map[int]map[int]bool {
	out := make(map[int]map[int]bool, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		seen := make(map[int]bool)
		stack := append([]*Node(nil), n.Succs...)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[cur.ID] {
				continue
			}
			seen[cur.ID] = true
			stack = append(stack, cur.Succs...)
		}
		out[n.ID] = seen
	}
	return out
}

// eventReadOnly reports whether every handler of the event, across every
// machine, only reads its payload: the payload parameter is neither written
// (directly or through callees) nor stored into the receiving machine's
// fields (which would allow writes in later states).
func (a *refAnalyzer) eventReadOnly(event string) bool {
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
			sum := a.summaryOf(md.Name, meth)
			if sum.Writes[0] {
				return false
			}
			// Stored into machine state?
			if tos, ok := sum.Links[refPosThis]; ok && tos[0] {
				return false
			}
		}
		// Transitions deliver the payload to entry blocks, which cannot
		// access payloads in this language; they are read-only by
		// construction.
	}
	return true
}

// requireSameAsReference analyses prog under both solvers with every option
// set and requires identical results.
func requireSameAsReference(t *testing.T, id string, prog *lang.Program) {
	t.Helper()
	want := refGivesUp(prog)
	for _, opts := range goldenOptionSets {
		got, gu := AnalyzeGivesUp(prog, opts)
		if ref := refAnalyze(prog, opts); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s %+v: the solvers disagree:\n dense     %s\n reference %s", id, opts, dumpResult(got), dumpResult(ref))
		}
		if !reflect.DeepEqual(gu, want) {
			t.Errorf("%s: give-up sets disagree:\n dense     %v\n reference %v", id, gu, want)
		}
	}
	if gu := GivesUp(prog); !reflect.DeepEqual(gu, want) {
		t.Errorf("%s: GivesUp disagrees:\n dense     %v\n reference %v", id, gu, want)
	}
}

// FuzzAnalyzeDifferential: any input that parses and checks must analyse
// without panic and give the same Result and give-up sets under the dense
// solver and the reference engine. The seeds are the 21 corpus sources plus
// the shapes the corpus lacks (dead code behind a return, an argument given
// up twice, recursion, a handler called as a helper), so `go test` runs
// them all.
func FuzzAnalyzeDifferential(f *testing.F) {
	for _, src := range corpusSources(f) {
		f.Add(src.text)
	}
	for i, src := range differentialSeeds {
		prog, err := lang.Parse(src)
		if err == nil {
			err = lang.Check(prog)
		}
		if err != nil {
			f.Fatalf("differentialSeeds[%d] must be a valid program: %v", i, err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, text string) {
		prog, err := lang.Parse(text)
		if err != nil || lang.Check(prog) != nil {
			t.Skip()
		}
		requireSameAsReference(t, "input", prog)
	})
}

// differentialSeeds are the shapes the corpus does not exercise.
var differentialSeeds = []string{
	// Dead code behind a return: the head of the dead chain is never
	// evaluated, the nodes behind it are — from the empty state — and a
	// give-up site among them is still checked. In g the dead head is a
	// call, which containment growth must not wake up: its fresh result
	// would make the dead send's payload non-null.
	`
event eX;
event eY;
class box {
	var v: int;
	var nxt: box;
	method touch() { this.v := 1; }
	method link(b: box) { this.nxt := b; }
	method wrap(): box { var b: box; b := new box; b.link(this); return b; }
}
machine m {
	var peer: machine;
	start state S { entry {} on eX do h; on eY do g; }
	method g(p: box) {
		var b: box;
		var c: box;
		var q: machine;
		b := new box;
		p.link(b);
		return;
		c := b.wrap();
		q := this.peer;
		send q, eX, c;
		c.touch();
	}
	method h(p: box) {
		var y: int;
		var b: box;
		var q: machine;
		return;
		y := 1;
		b := new box;
		q := this.peer;
		send q, eX, b;
		b.touch();
	}
}`,
	// One variable passed for two given-up formals is reported twice; the
	// give-up set climbs through a helper chain and a recursive method.
	`
event eX;
class box {
	var nxt: box;
	method link(b: box) { this.nxt := b; }
	method last(): box {
		var n: box;
		n := this.nxt;
		if (n == null) { return this; }
		n := n.last();
		return n;
	}
}
machine m {
	var peer: machine;
	var keep: box;
	start state S { entry {} on eX do h; }
	method h(p: box) {
		var t: box;
		t := p.last();
		this.two(p, p);
		t.link(p);
	}
	method two(a: box, b: box) {
		this.one(a);
		this.one(b);
	}
	method one(a: box) {
		var q: machine;
		q := this.peer;
		if (a == null) { this.one(a); }
		send q, eX, a;
	}
}`,
	// A handler called as a helper is an unknown callee under xSA, also with
	// a scalar argument loaded from a field; a scalar payload; a create
	// with a payload; a loop that re-sends a stored field.
	`
event eX;
event eN;
event eGo;
class box {
	var v: int;
	var nxt: box;
	method touch() { this.v := this.v + 1; }
	method peek(): int { var r: int; r := this.v; return r; }
	method link(b: box) { this.nxt := b; }
	method wrap(): box { var b: box; b := new box; b.link(this); return b; }
}
machine m {
	var peer: machine;
	var count: int;
	var stash: box;
	start state S {
		entry { var b: box; b := new box; this.stash := b; this.peer := create w(b); }
		on eX do h;
		on eN do hn;
		on eGo goto T;
	}
	state T {
		entry { this.stash := null; }
		on eX do h;
	}
	method h(p: box) {
		var q: machine;
		var i: int;
		q := this.peer;
		i := 0;
		while (i < 3) {
			send q, eX, this.stash;
			i := i + 1;
		}
		this.aux(p);
		this.stash := p.wrap();
	}
	method hn(n: int) {
		this.count := n;
	}
	method aux(p: box) {
		var n: int;
		var q: machine;
		q := this.peer;
		send q, eX, p;
		n := this.count;
		this.hn(n);
		this.h(p);
		n := p.peek();
	}
}
machine w {
	start state S { entry {} on eX do got; }
	method got(p: box) { p.touch(); }
}`,
}
