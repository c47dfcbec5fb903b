package lang

import (
	"fmt"
	"strconv"
)

// maxNesting bounds how deep blocks and sub-expressions may nest (the corpus
// stays under 20). The parser, Check, the analysis' lowering and the interp
// compiler all recurse over the tree, and Go cannot recover from a stack
// overflow, so a pathological source must be refused here.
const maxNesting = 1000

// slab hands out zeroed elements of one type from shared chunks, so that a
// parse allocates per chunk instead of per AST node or per statement list.
type slab[T any] struct {
	free []T
	size int // of the last chunk; each is half as large again, up to 64
}

// take returns n fresh elements with no spare capacity behind them.
func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.size = min(max(s.size+s.size/2, 4), 64)
		s.free = make([]T, max(n, s.size))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// alloc returns a pointer to a copy of v in the slab.
func alloc[T any](s *slab[T], v T) *T {
	p := &s.take(1)[0]
	*p = v
	return p
}

// copyOf moves a finished list off a scratch stack; an empty list is nil.
func (s *slab[T]) copyOf(xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	out := s.take(len(xs))
	copy(out, xs)
	return out
}

// parser is a recursive-descent parser for the core language. A syntax
// error unwinds to parse as a bailout panic.
type parser struct {
	lex   lexer
	tok   Token
	depth int // open blocks and sub-expressions, see maxNesting

	// Scratch stacks the lists under construction sit on; a finished list is
	// copied into its slab and popped.
	stmts []Stmt
	exprs []Expr
	vars  []*VarDecl

	stmtLists slab[Stmt]
	exprLists slab[Expr]
	varLists  slab[*VarDecl]

	varDecls slab[VarDecl]
	methods  slab[MethodDecl]
	states   slab[StateDecl]
	locals   slab[LocalDecl]
	assigns  slab[AssignStmt]
	exprSts  slab[ExprStmt]
	sends    slab[SendStmt]
	returns  slab[ReturnStmt]
	ifs      slab[IfStmt]
	whiles   slab[WhileStmt]
	asserts  slab[AssertStmt]
	raises   slab[RaiseStmt]
	ints     slab[IntLit]
	bools    slab[BoolLit]
	nulls    slab[NullLit]
	varRefs  slab[VarRef]
	thisRefs slab[ThisRef]
	fields   slab[FieldRef]
	news     slab[NewExpr]
	creates  slab[CreateExpr]
	calls    slab[CallExpr]
	unaries  slab[UnaryExpr]
	binaries slab[BinaryExpr]
}

type bailout struct{ err error }

// Parse parses a compilation unit. The returned program has not been
// checked; call Check before analysis or interpretation.
func Parse(src string) (*Program, error) {
	p := &parser{lex: newLexer(src)}
	return p.parse()
}

func (p *parser) parse() (prog *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			b, ok := r.(bailout)
			if !ok {
				panic(r)
			}
			prog, err = nil, b.err
		}
	}()
	p.advance()
	prog = &Program{}
	for p.tok.Kind != TokEOF {
		switch p.tok.Kind {
		case TokEvent:
			prog.Events = append(prog.Events, p.parseEvent())
		case TokClass:
			prog.Classes = append(prog.Classes, p.parseClass())
		case TokMachine:
			prog.Machines = append(prog.Machines, p.parseMachine("machine"))
		case TokMonitor:
			md := p.parseMachine("monitor")
			md.IsMonitor = true
			prog.Monitors = append(prog.Monitors, md)
		default:
			p.fail("expected 'event', 'class', 'machine' or 'monitor', got %s", p.tok)
		}
	}
	return prog, nil
}

// MustParse parses src and panics on error; for tests and embedded sources.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// fail abandons the parse with an error at the current token.
func (p *parser) fail(format string, args ...any) {
	panic(bailout{fmt.Errorf("lang: %s: %s", p.tok.Pos, fmt.Sprintf(format, args...))})
}

func (p *parser) advance() {
	if err := p.lex.next(&p.tok); err != nil {
		panic(bailout{err})
	}
}

// accept consumes the current token if it has the given kind.
func (p *parser) accept(kind TokenKind) bool {
	if p.tok.Kind != kind {
		return false
	}
	p.advance()
	return true
}

// expect consumes a token of the given kind and returns its text; what
// names the token in the error message.
func (p *parser) expect(kind TokenKind, what string) string {
	if p.tok.Kind != kind {
		p.fail("expected %s, got %s", what, p.tok)
	}
	text := p.tok.Text
	p.advance()
	return text
}

func (p *parser) ident() string { return p.expect(TokIdent, "identifier") }

// open enters a nested block or sub-expression; the caller closes it with
// p.depth--.
func (p *parser) open() {
	if p.depth++; p.depth > maxNesting {
		p.fail("blocks and expressions nest deeper than %d", maxNesting)
	}
}

func (p *parser) parseType() Type {
	switch p.tok.Kind {
	case TokIntType, TokBoolType, TokMachine, TokIdent:
		name := p.tok.Text
		p.advance()
		return Type{Name: name}
	}
	p.fail("expected a type, got %s", p.tok)
	return Type{}
}

func (p *parser) parseEvent() *EventDecl {
	pos := p.tok.Pos
	p.expect(TokEvent, `"event"`)
	name := p.ident()
	p.expect(TokSemi, "';'")
	return &EventDecl{Name: name, Pos: pos}
}

func (p *parser) parseVarDecl() *VarDecl {
	pos := p.tok.Pos
	p.expect(TokVar, `"var"`)
	name := p.ident()
	p.expect(TokColon, "':'")
	typ := p.parseType()
	p.expect(TokSemi, "';'")
	return alloc(&p.varDecls, VarDecl{Name: name, Type: typ, Pos: pos})
}

func (p *parser) parseMethod() *MethodDecl {
	pos := p.tok.Pos
	p.expect(TokMethod, `"method"`)
	name := p.ident()
	p.expect(TokLParen, "'('")
	base := len(p.vars)
	for p.tok.Kind != TokRParen {
		if len(p.vars) > base {
			p.expect(TokComma, "','")
		}
		ppos := p.tok.Pos
		pname := p.ident()
		p.expect(TokColon, "':'")
		p.vars = append(p.vars, alloc(&p.varDecls, VarDecl{Name: pname, Type: p.parseType(), Pos: ppos}))
	}
	p.advance() // consume ')'
	params := p.varLists.copyOf(p.vars[base:])
	p.vars = p.vars[:base]
	var result *Type
	if p.accept(TokColon) {
		typ := p.parseType()
		result = &typ
	}
	body := p.parseBlock()
	return alloc(&p.methods, MethodDecl{Name: name, Params: params, Result: result, Body: body, Pos: pos})
}

func (p *parser) parseClass() *ClassDecl {
	pos := p.tok.Pos
	p.expect(TokClass, `"class"`)
	cd := &ClassDecl{Name: p.ident(), Pos: pos}
	p.expect(TokLBrace, "'{'")
	for !p.accept(TokRBrace) {
		switch p.tok.Kind {
		case TokVar:
			cd.Fields = append(cd.Fields, p.parseVarDecl())
		case TokMethod:
			cd.Methods = append(cd.Methods, p.parseMethod())
		default:
			p.fail("expected 'var' or 'method' in class, got %s", p.tok)
		}
	}
	return cd
}

// parseMachine parses a machine or monitor declaration; kw is the
// introducing keyword ("machine" or "monitor") — the two share their whole
// grammar except that monitor states may carry hot/cold annotations (the
// checker enforces the monitor-only rules).
func (p *parser) parseMachine(kw string) *MachineDecl {
	pos := p.tok.Pos
	p.advance() // the caller saw kw
	md := &MachineDecl{Name: p.ident(), Pos: pos}
	p.expect(TokLBrace, "'{'")
	for !p.accept(TokRBrace) {
		switch p.tok.Kind {
		case TokVar:
			md.Fields = append(md.Fields, p.parseVarDecl())
		case TokMethod:
			md.Methods = append(md.Methods, p.parseMethod())
		case TokStart, TokHot, TokCold, TokState:
			md.States = append(md.States, p.parseState())
		default:
			p.fail("expected 'var', 'method' or 'state' in %s, got %s", kw, p.tok)
		}
	}
	return md
}

func (p *parser) parseState() *StateDecl {
	sd := alloc(&p.states, StateDecl{Pos: p.tok.Pos, OnDo: map[string]string{}, OnGoto: map[string]string{}})
	// State modifiers may appear in any order before the state keyword:
	// "start hot state S" and "hot start state S" are both accepted.
modifiers:
	for {
		switch p.tok.Kind {
		case TokStart:
			if sd.Start {
				p.fail("duplicate 'start' modifier")
			}
			sd.Start = true
		case TokHot, TokCold:
			if sd.Hot || sd.Cold {
				p.fail("duplicate hot/cold modifier")
			}
			sd.Hot, sd.Cold = p.tok.Kind == TokHot, p.tok.Kind == TokCold
		default:
			break modifiers
		}
		p.advance()
	}
	p.expect(TokState, `"state"`)
	sd.Name = p.ident()
	p.expect(TokLBrace, "'{'")
	for !p.accept(TokRBrace) {
		switch p.tok.Kind {
		case TokEntry:
			if sd.Entry != nil {
				p.fail("state %q: duplicate entry block", sd.Name)
			}
			p.advance()
			if sd.Entry = p.parseBlock(); sd.Entry == nil {
				sd.Entry = []Stmt{} // present, though empty
			}
		case TokOn:
			p.advance()
			evt := p.ident()
			switch {
			case p.accept(TokDo):
				sd.OnDo[evt] = p.ident()
			case p.accept(TokGoto):
				sd.OnGoto[evt] = p.ident()
			default:
				p.fail("expected 'do' or 'goto', got %s", p.tok)
			}
			p.expect(TokSemi, "';'")
		case TokDefer, TokIgnore:
			set := &sd.Defers
			if p.tok.Kind == TokIgnore {
				set = &sd.Ignores
			}
			p.advance()
			if *set == nil {
				*set = make(map[string]bool)
			}
			(*set)[p.ident()] = true
			p.expect(TokSemi, "';'")
		default:
			p.fail("expected 'entry', 'on', 'defer' or 'ignore' in state, got %s", p.tok)
		}
	}
	return sd
}

func (p *parser) parseBlock() []Stmt {
	p.expect(TokLBrace, "'{'")
	base := len(p.stmts)
	for p.tok.Kind != TokRBrace {
		s := p.parseStmt() // may move p.stmts
		p.stmts = append(p.stmts, s)
	}
	p.advance()
	out := p.stmtLists.copyOf(p.stmts[base:])
	p.stmts = p.stmts[:base]
	return out
}

// parseNested parses the block of an if or a while.
func (p *parser) parseNested() []Stmt {
	p.open()
	out := p.parseBlock()
	p.depth--
	return out
}

// parseCond parses a parenthesized condition.
func (p *parser) parseCond() Expr {
	p.expect(TokLParen, "'('")
	cond := p.parseExpr()
	p.expect(TokRParen, "')'")
	return cond
}

// parsePayload parses the optional ", payload" of a send or raise.
func (p *parser) parsePayload() Expr {
	if p.accept(TokComma) {
		return p.parseExpr()
	}
	return nil
}

func (p *parser) parseStmt() Stmt {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokVar:
		return alloc(&p.locals, LocalDecl{Decl: p.parseVarDecl()})
	case TokIf:
		p.advance()
		st := alloc(&p.ifs, IfStmt{Cond: p.parseCond(), Pos: pos})
		st.Then = p.parseNested()
		if p.accept(TokElse) {
			st.Else = p.parseNested()
		}
		return st
	case TokWhile:
		p.advance()
		st := alloc(&p.whiles, WhileStmt{Cond: p.parseCond(), Pos: pos})
		st.Body = p.parseNested()
		return st
	case TokReturn:
		p.advance()
		st := alloc(&p.returns, ReturnStmt{Pos: pos})
		if p.tok.Kind != TokSemi {
			st.Value = p.parseExpr()
		}
		p.expect(TokSemi, "';'")
		return st
	case TokSend:
		p.advance()
		st := alloc(&p.sends, SendStmt{Dst: p.parseExpr(), Pos: pos})
		p.expect(TokComma, "','")
		st.Event = p.ident()
		st.Payload = p.parsePayload()
		p.expect(TokSemi, "';'")
		return st
	case TokRaise:
		p.advance()
		st := alloc(&p.raises, RaiseStmt{Event: p.ident(), Pos: pos})
		st.Payload = p.parsePayload()
		p.expect(TokSemi, "';'")
		return st
	case TokAssert:
		p.advance()
		st := alloc(&p.asserts, AssertStmt{Cond: p.parseExpr(), Pos: pos})
		p.expect(TokSemi, "';'")
		return st
	case TokThis:
		// this.f := expr;  or  this.m(args);
		p.advance()
		p.expect(TokDot, "'.'")
		name := p.ident()
		if p.tok.Kind == TokLParen {
			call := p.parseCallTail(alloc(&p.thisRefs, ThisRef{Pos: pos}), name, pos)
			p.expect(TokSemi, "';'")
			return alloc(&p.exprSts, ExprStmt{X: call, Pos: pos})
		}
		p.expect(TokAssign, "':='")
		st := alloc(&p.assigns, AssignStmt{ToField: name, Value: p.parseExpr(), Pos: pos})
		p.expect(TokSemi, "';'")
		return st
	case TokIdent:
		// v := expr;  or  v.m(args);
		name := p.tok.Text
		p.advance()
		switch {
		case p.accept(TokAssign):
			st := alloc(&p.assigns, AssignStmt{Target: name, Value: p.parseExpr(), Pos: pos})
			p.expect(TokSemi, "';'")
			return st
		case p.accept(TokDot):
			meth := p.ident()
			call := p.parseCallTail(alloc(&p.varRefs, VarRef{Name: name, Pos: pos}), meth, pos)
			p.expect(TokSemi, "';'")
			return alloc(&p.exprSts, ExprStmt{X: call, Pos: pos})
		}
		p.fail("expected ':=' or '.' after identifier %q", name)
	}
	p.fail("unexpected token %s at start of statement", p.tok)
	return nil
}

func (p *parser) parseCallTail(recv Expr, method string, pos Pos) *CallExpr {
	p.expect(TokLParen, "'('")
	p.open()
	base := len(p.exprs)
	for p.tok.Kind != TokRParen {
		if len(p.exprs) > base {
			p.expect(TokComma, "','")
		}
		arg := p.parseExpr() // may move p.exprs
		p.exprs = append(p.exprs, arg)
	}
	p.advance() // consume ')'
	p.depth--
	args := p.exprLists.copyOf(p.exprs[base:])
	p.exprs = p.exprs[:base]
	return alloc(&p.calls, CallExpr{Recv: recv, Method: method, Args: args, Pos: pos})
}

// binaryOps gives each binary operator token its precedence (loosest is 1,
// 0 marks every other token) and its spelling.
var binaryOps = [TokCold + 1]struct {
	prec int
	text string
}{
	TokOrOr: {1, "||"}, TokAndAnd: {2, "&&"},
	TokEq: {3, "=="}, TokNeq: {3, "!="},
	TokLt: {4, "<"}, TokLe: {4, "<="}, TokGt: {4, ">"}, TokGe: {4, ">="},
	TokPlus: {5, "+"}, TokMinus: {5, "-"},
	TokStar: {6, "*"}, TokSlash: {6, "/"}, TokPercent: {6, "%"},
}

func (p *parser) parseExpr() Expr {
	return p.parseBinary(1)
}

func (p *parser) parseBinary(minPrec int) Expr {
	left := p.parseUnary()
	depth := p.depth
	for {
		op := binaryOps[p.tok.Kind]
		if op.prec == 0 || op.prec < minPrec {
			p.depth = depth
			return left
		}
		pos := p.tok.Pos
		p.advance()
		p.open() // the chain's tree grows one level per operator
		left = alloc(&p.binaries, BinaryExpr{Op: op.text, L: left, R: p.parseBinary(op.prec + 1), Pos: pos})
	}
}

func (p *parser) parseUnary() Expr {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokBang, TokMinus:
		op := p.tok.Text
		p.advance()
		p.open()
		x := p.parseUnary()
		p.depth--
		return alloc(&p.unaries, UnaryExpr{Op: op, X: x, Pos: pos})
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() Expr {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokInt:
		v, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			p.fail("bad integer literal: %v", err)
		}
		p.advance()
		return alloc(&p.ints, IntLit{Value: v, Pos: pos})
	case TokTrue, TokFalse:
		v := p.tok.Kind == TokTrue
		p.advance()
		return alloc(&p.bools, BoolLit{Value: v, Pos: pos})
	case TokNull:
		p.advance()
		return alloc(&p.nulls, NullLit{Pos: pos})
	case TokNew:
		p.advance()
		return alloc(&p.news, NewExpr{Class: p.ident(), Pos: pos})
	case TokCreate:
		p.advance()
		x := alloc(&p.creates, CreateExpr{Machine: p.ident(), Pos: pos})
		p.expect(TokLParen, "'('")
		if p.tok.Kind != TokRParen {
			p.open()
			x.Payload = p.parseExpr()
			p.depth--
		}
		p.expect(TokRParen, "')'")
		return x
	case TokThis:
		p.advance()
		if !p.accept(TokDot) {
			return alloc(&p.thisRefs, ThisRef{Pos: pos})
		}
		name := p.ident()
		if p.tok.Kind == TokLParen {
			return p.parseCallTail(alloc(&p.thisRefs, ThisRef{Pos: pos}), name, pos)
		}
		return alloc(&p.fields, FieldRef{Field: name, Pos: pos})
	case TokIdent:
		ref := alloc(&p.varRefs, VarRef{Name: p.tok.Text, Pos: pos})
		p.advance()
		if p.accept(TokDot) {
			return p.parseCallTail(ref, p.ident(), pos)
		}
		return ref
	case TokLParen:
		p.advance()
		p.open()
		x := p.parseExpr()
		p.depth--
		p.expect(TokRParen, "')'")
		return x
	}
	p.fail("unexpected token %s in expression", p.tok)
	return nil
}
