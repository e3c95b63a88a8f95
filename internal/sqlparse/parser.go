package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/storage"
)

// TableItem is one FROM-clause entry.
type TableItem struct {
	// Table is the base table name.
	Table string
	// Alias is the optional correlation name; empty means the table name
	// itself is used.
	Alias string
}

// Name returns the effective name predicates refer to.
func (t TableItem) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// AggFunc identifies an aggregate function in the select list.
type AggFunc int

const (
	// AggNone marks a plain (non-aggregate) select item.
	AggNone AggFunc = iota
	// AggCount is COUNT(col) or COUNT(*).
	AggCount
	// AggSum is SUM(col).
	AggSum
	// AggMin is MIN(col).
	AggMin
	// AggMax is MAX(col).
	AggMax
	// AggAvg is AVG(col).
	AggAvg
)

// String renders the SQL name of the aggregate.
func (a AggFunc) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return ""
	}
}

// SelectItem is one entry of the select list: either a plain column
// (Agg == AggNone) or an aggregate over a column or * (COUNT(*) only).
type SelectItem struct {
	// Agg is the aggregate function, AggNone for a plain column.
	Agg AggFunc
	// Star marks COUNT(*).
	Star bool
	// Col is the subject column (unused when Star).
	Col expr.ColumnRef
	// ID is Col bound (Bind); zero when Star.
	ID ColumnID
}

// ColumnID is a column bound to its place in the query's data: Table is its
// table's position in the FROM list, which is the estimator's table number,
// and Ord its ordinal in that table's data schema, -1 when the table has no
// loaded data or the data lacks the column.
type ColumnID struct{ Table, Ord int }

// String renders the item as SQL.
func (s SelectItem) String() string {
	switch {
	case s.Agg == AggNone:
		if s.Col.Table == "" {
			return s.Col.Column
		}
		return s.Col.String()
	case s.Star:
		return s.Agg.String() + "(*)"
	default:
		inner := s.Col.Column
		if s.Col.Table != "" {
			inner = s.Col.String()
		}
		return s.Agg.String() + "(" + inner + ")"
	}
}

// Query is the parsed form of a conjunctive select-project-join query,
// optionally with aggregates and a GROUP BY clause.
type Query struct {
	// CountStar is true for SELECT COUNT(*) (with no other select items
	// and no GROUP BY) — the paper's query shape, kept as a fast path.
	CountStar bool
	// Star is true for SELECT *.
	Star bool
	// Projection lists the selected columns when neither CountStar nor
	// Star and no aggregates are present, and ProjectionIDs each one bound
	// (Bind).
	Projection    []expr.ColumnRef
	ProjectionIDs []ColumnID
	// Select is the full select list when the query uses aggregates or
	// GROUP BY (empty otherwise; the legacy fields above cover those).
	Select []SelectItem
	// GroupBy lists the grouping columns (empty for ungrouped queries), and
	// GroupByIDs each one bound (Bind).
	GroupBy    []expr.ColumnRef
	GroupByIDs []ColumnID
	// Tables is the FROM list.
	Tables []TableItem
	// Where is the conjunction of predicates (empty if no WHERE clause).
	Where []expr.Predicate
	// Disjunctions are the OR-groups of the WHERE clause (conjunction of
	// disjunctions normal form); each is validated during Bind to cover a
	// single table.
	Disjunctions []expr.Disjunction
}

// String renders the query back to SQL (canonical spacing).
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch {
	case len(q.Select) > 0:
		for i, item := range q.Select {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(item.String())
		}
	case q.CountStar:
		b.WriteString("COUNT(*)")
	case q.Star:
		b.WriteString("*")
	default:
		for i, c := range q.Projection {
			if i > 0 {
				b.WriteString(", ")
			}
			if c.Table == "" {
				b.WriteString(c.Column)
			} else {
				b.WriteString(c.String())
			}
		}
	}
	b.WriteString(" FROM ")
	for i, t := range q.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Table)
		if t.Alias != "" {
			b.WriteString(" " + t.Alias)
		}
	}
	if len(q.Where) > 0 || len(q.Disjunctions) > 0 {
		b.WriteString(" WHERE ")
		parts := make([]string, 0, len(q.Where)+len(q.Disjunctions))
		if c := expr.FormatConjunction(q.Where); c != "" {
			parts = append(parts, c)
		}
		for _, d := range q.Disjunctions {
			parts = append(parts, d.String())
		}
		b.WriteString(strings.Join(parts, " AND "))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			if c.Table == "" {
				b.WriteString(c.Column)
			} else {
				b.WriteString(c.String())
			}
		}
	}
	return b.String()
}

// Parse parses a SQL statement of the supported subset.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: input}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF) {
		return nil, p.errorf("unexpected %s after end of query", p.cur().Kind)
	}
	return q, nil
}

type parser struct {
	toks  []Token
	i     int
	input string
}

func (p *parser) cur() Token          { return p.toks[p.i] }
func (p *parser) at(k TokenKind) bool { return p.cur().Kind == k }

func (p *parser) atKeyword(kw string) bool {
	return p.at(TokIdent) && strings.EqualFold(p.cur().Text, kw)
}

func (p *parser) advance() Token {
	t := p.toks[p.i]
	if t.Kind != TokEOF {
		p.i++
	}
	return t
}

func (p *parser) expect(k TokenKind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errorf("expected %s, found %s", k, p.describeCur())
	}
	return p.advance(), nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errorf("expected %s, found %s", strings.ToUpper(kw), p.describeCur())
	}
	p.advance()
	return nil
}

func (p *parser) describeCur() string {
	t := p.cur()
	if t.Kind == TokIdent || t.Kind == TokNumber {
		return fmt.Sprintf("%q", t.Text)
	}
	return t.Kind.String()
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: offset %d: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

var reservedWords = map[string]bool{
	"select": true, "from": true, "where": true, "and": true, "or": true,
	"as": true, "count": true, "group": true, "by": true,
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	q := &Query{}
	if err := p.parseSelectList(q); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if err := p.parseFromList(q); err != nil {
		return nil, err
	}
	if p.atKeyword("where") {
		p.advance()
		if err := p.parseConjunction(q); err != nil {
			return nil, err
		}
	}
	if p.atKeyword("group") {
		p.advance()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			ref, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, ref)
			if !p.at(TokComma) {
				break
			}
			p.advance()
		}
	}
	return q, p.normalizeSelect(q)
}

// normalizeSelect routes the parsed select list into the legacy fast-path
// fields (Star / CountStar / Projection) when no aggregate or GROUP BY is
// involved, and validates aggregate queries otherwise.
func (p *parser) normalizeSelect(q *Query) error {
	hasAgg := false
	for _, it := range q.Select {
		if it.Agg != AggNone {
			hasAgg = true
		}
	}
	if q.Star {
		if hasAgg || len(q.GroupBy) > 0 {
			return p.errorf("SELECT * cannot be combined with GROUP BY")
		}
		return nil
	}
	switch {
	case !hasAgg && len(q.GroupBy) == 0:
		// Plain projection.
		for _, it := range q.Select {
			q.Projection = append(q.Projection, it.Col)
		}
		q.Select = nil
	case len(q.Select) == 1 && q.Select[0].Agg == AggCount && q.Select[0].Star && len(q.GroupBy) == 0:
		// The paper's COUNT(*) fast path.
		q.CountStar = true
		q.Select = nil
	}
	return nil
}

func (p *parser) parseSelectList(q *Query) error {
	if p.at(TokStar) {
		p.advance()
		q.Star = true
		return nil
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return err
		}
		q.Select = append(q.Select, item)
		if !p.at(TokComma) {
			return nil
		}
		p.advance()
	}
}

// aggFuncs maps the lower-cased aggregate names to their function.
var aggFuncs = map[string]AggFunc{
	"count": AggCount, "sum": AggSum, "min": AggMin, "max": AggMax, "avg": AggAvg,
}

// parseSelectItem parses one select-list entry: a plain column reference or
// an aggregate call agg(col) / COUNT(*).
func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.at(TokIdent) && p.toks[p.i+1].Kind == TokLParen {
		agg, ok := aggFuncs[strings.ToLower(p.cur().Text)]
		if !ok {
			return SelectItem{}, p.errorf("unknown function %q (supported: COUNT, SUM, MIN, MAX, AVG)", p.cur().Text)
		}
		p.advance() // function name
		p.advance() // '('
		item := SelectItem{Agg: agg}
		if p.at(TokStar) {
			if agg != AggCount {
				return SelectItem{}, p.errorf("%s(*) is not supported; only COUNT(*)", agg)
			}
			p.advance()
			item.Star = true
		} else {
			ref, err := p.parseColumnRef()
			if err != nil {
				return SelectItem{}, err
			}
			item.Col = ref
		}
		if _, err := p.expect(TokRParen); err != nil {
			return SelectItem{}, err
		}
		return item, nil
	}
	ref, err := p.parseColumnRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: ref}, nil
}

func (p *parser) parseFromList(q *Query) error {
	for {
		name, err := p.parseIdent("table name")
		if err != nil {
			return err
		}
		item := TableItem{Table: name}
		if p.atKeyword("as") {
			p.advance()
			alias, err := p.parseIdent("alias")
			if err != nil {
				return err
			}
			item.Alias = alias
		} else if p.at(TokIdent) && !reservedWords[strings.ToLower(p.cur().Text)] {
			item.Alias = p.advance().Text
		}
		q.Tables = append(q.Tables, item)
		if !p.at(TokComma) {
			return nil
		}
		p.advance()
	}
}

func (p *parser) parseIdent(what string) (string, error) {
	if !p.at(TokIdent) {
		return "", p.errorf("expected %s, found %s", what, p.describeCur())
	}
	if reservedWords[strings.ToLower(p.cur().Text)] {
		return "", p.errorf("expected %s, found reserved word %q", what, p.cur().Text)
	}
	return p.advance().Text, nil
}

// parseConjunction parses the WHERE clause in conjunction-of-disjunctions
// normal form: orExpr (AND orExpr)*. A one-disjunct orExpr lands in
// q.Where; a genuine OR-group lands in q.Disjunctions.
func (p *parser) parseConjunction(q *Query) error {
	for {
		preds, err := p.parseOrExpr()
		if err != nil {
			return err
		}
		if len(preds) == 1 {
			q.Where = append(q.Where, preds[0])
		} else {
			q.Disjunctions = append(q.Disjunctions, expr.Disjunction{Preds: preds})
		}
		if !p.atKeyword("and") {
			return nil
		}
		p.advance()
	}
}

// parseOrExpr parses term (OR term)*, flattening nested parenthesized OR
// groups.
func (p *parser) parseOrExpr() ([]expr.Predicate, error) {
	preds, err := p.parseOrTerm()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("or") {
		p.advance()
		more, err := p.parseOrTerm()
		if err != nil {
			return nil, err
		}
		preds = append(preds, more...)
	}
	return preds, nil
}

// parseOrTerm parses a parenthesized OR group or a single comparison.
func (p *parser) parseOrTerm() ([]expr.Predicate, error) {
	if p.at(TokLParen) {
		p.advance()
		preds, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		if p.atKeyword("and") {
			return nil, p.errorf("AND inside a parenthesized group is not supported; use conjunction-of-disjunctions form")
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return preds, nil
	}
	pred, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	return []expr.Predicate{pred}, nil
}

// operand is either a column reference or a literal.
type operand struct {
	isColumn bool
	col      expr.ColumnRef
	lit      storage.Value
}

func (p *parser) parseComparison() (expr.Predicate, error) {
	// Parenthesized comparisons are allowed: (a = b).
	if p.at(TokLParen) {
		p.advance()
		pred, err := p.parseComparison()
		if err != nil {
			return expr.Predicate{}, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return expr.Predicate{}, err
		}
		return pred, nil
	}
	left, err := p.parseOperand()
	if err != nil {
		return expr.Predicate{}, err
	}
	op, err := p.parseOp()
	if err != nil {
		return expr.Predicate{}, err
	}
	right, err := p.parseOperand()
	if err != nil {
		return expr.Predicate{}, err
	}
	switch {
	case left.isColumn && right.isColumn:
		return expr.NewJoin(left.col, op, right.col), nil
	case left.isColumn:
		return expr.NewConst(left.col, op, right.lit), nil
	case right.isColumn:
		// Normalize "const op col" to "col flipped-op const".
		return expr.NewConst(right.col, op.Flip(), left.lit), nil
	default:
		return expr.Predicate{}, p.errorf("comparison between two literals is not supported")
	}
}

func (p *parser) parseOp() (expr.CompareOp, error) {
	switch p.cur().Kind {
	case TokEQ:
		p.advance()
		return expr.OpEQ, nil
	case TokNE:
		p.advance()
		return expr.OpNE, nil
	case TokLT:
		p.advance()
		return expr.OpLT, nil
	case TokLE:
		p.advance()
		return expr.OpLE, nil
	case TokGT:
		p.advance()
		return expr.OpGT, nil
	case TokGE:
		p.advance()
		return expr.OpGE, nil
	default:
		return 0, p.errorf("expected comparison operator, found %s", p.describeCur())
	}
}

func (p *parser) parseOperand() (operand, error) {
	switch p.cur().Kind {
	case TokNumber:
		t := p.advance()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return operand{}, p.errorf("malformed number %q", t.Text)
			}
			return operand{lit: storage.Float64(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return operand{}, p.errorf("malformed integer %q", t.Text)
		}
		return operand{lit: storage.Int64(n)}, nil
	case TokString:
		t := p.advance()
		return operand{lit: storage.String64(t.Text)}, nil
	case TokIdent:
		switch strings.ToLower(p.cur().Text) {
		case "true":
			p.advance()
			return operand{lit: storage.Bool(true)}, nil
		case "false":
			p.advance()
			return operand{lit: storage.Bool(false)}, nil
		case "null":
			p.advance()
			return operand{lit: storage.Null(storage.TypeInt64)}, nil
		}
		ref, err := p.parseColumnRef()
		if err != nil {
			return operand{}, err
		}
		return operand{isColumn: true, col: ref}, nil
	default:
		return operand{}, p.errorf("expected column or literal, found %s", p.describeCur())
	}
}

func (p *parser) parseColumnRef() (expr.ColumnRef, error) {
	first, err := p.parseIdent("column name")
	if err != nil {
		return expr.ColumnRef{}, err
	}
	if p.at(TokDot) {
		p.advance()
		second, err := p.parseIdent("column name")
		if err != nil {
			return expr.ColumnRef{}, err
		}
		return expr.ColumnRef{Table: first, Column: second}, nil
	}
	// Unqualified: table resolved later by Bind.
	return expr.ColumnRef{Column: first}, nil
}
