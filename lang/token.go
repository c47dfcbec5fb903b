// Package lang implements a front end for the paper's core object-oriented
// language (Figure 2), extended with the machine, state and event
// declarations of Section 4: a lexer, a recursive-descent parser producing
// an AST, and a name/type checker. The analysis package consumes the
// checked AST; the interp package executes it under the paper's operational
// semantics (Figures 3 and 4).
//
// The lexer classifies reserved words itself — every keyword is a token
// kind of its own — so the parser dispatches on kinds and never compares a
// token's text. The parser takes AST nodes and statement, argument and
// parameter lists from per-parse slabs, and refuses blocks and expressions
// nested deeper than a fixed bound, because it and every pass behind it
// recurse over the tree. Check leaves what it resolved on the tree: the
// declaration behind every VarRef, FieldRef, assignment target and call,
// each VarDecl's Index and each method's frame (MethodDecl.Vars), and a
// state's entry block as a method (StateDecl.EntryMethod), so a back end
// can lower by index without looking a name up again.
package lang

import "fmt"

// TokenKind enumerates lexical token kinds.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokInt
	// Punctuation and operators.
	TokLBrace  // {
	TokRBrace  // }
	TokLParen  // (
	TokRParen  // )
	TokSemi    // ;
	TokComma   // ,
	TokColon   // :
	TokDot     // .
	TokAssign  // :=
	TokPlus    // +
	TokMinus   // -
	TokStar    // *
	TokSlash   // /
	TokPercent // %
	TokEq      // ==
	TokNeq     // !=
	TokLt      // <
	TokLe      // <=
	TokGt      // >
	TokGe      // >=
	TokAndAnd  // &&
	TokOrOr    // ||
	TokBang    // !
	// Keywords: the lexer classifies a reserved word once, so the parser
	// compares kinds and never a token's text.
	TokClass
	TokMachine
	TokEvent
	TokState
	TokStart
	TokEntry
	TokOn
	TokDo
	TokGoto
	TokDefer
	TokIgnore
	TokVar
	TokMethod
	TokIf
	TokElse
	TokWhile
	TokReturn
	TokSend
	TokCreate
	TokNew
	TokAssert
	TokRaise
	TokThis
	TokNull
	TokTrue
	TokFalse
	TokIntType  // int
	TokBoolType // bool
	TokHalt
	TokMonitor
	TokHot
	TokCold
)

// keywordKind returns the kind of a reserved word, TokIdent for any other
// identifier.
func keywordKind(text string) TokenKind {
	switch text {
	case "class":
		return TokClass
	case "machine":
		return TokMachine
	case "event":
		return TokEvent
	case "state":
		return TokState
	case "start":
		return TokStart
	case "entry":
		return TokEntry
	case "on":
		return TokOn
	case "do":
		return TokDo
	case "goto":
		return TokGoto
	case "defer":
		return TokDefer
	case "ignore":
		return TokIgnore
	case "var":
		return TokVar
	case "method":
		return TokMethod
	case "if":
		return TokIf
	case "else":
		return TokElse
	case "while":
		return TokWhile
	case "return":
		return TokReturn
	case "send":
		return TokSend
	case "create":
		return TokCreate
	case "new":
		return TokNew
	case "assert":
		return TokAssert
	case "raise":
		return TokRaise
	case "this":
		return TokThis
	case "null":
		return TokNull
	case "true":
		return TokTrue
	case "false":
		return TokFalse
	case "int":
		return TokIntType
	case "bool":
		return TokBoolType
	case "halt":
		return TokHalt
	case "monitor":
		return TokMonitor
	case "hot":
		return TokHot
	case "cold":
		return TokCold
	}
	return TokIdent
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind TokenKind
	Text string
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}
