package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SQL statement. A trailing semicolon is allowed.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input after statement")
	}
	// Mutations keep their source text on the AST: the storage engine's
	// write-ahead log records them logically (text + args), and prepared
	// statements execute from the AST alone.
	switch st := st.(type) {
	case *Insert:
		st.Src = src
	case *Update:
		st.Src = src
	case *Delete:
		st.Src = src
	case *CreateTable:
		st.Src = src
	case *CreateIndex:
		st.Src = src
	case *AlterAutoInc:
		st.Src = src
	}
	return st, nil
}

type parser struct {
	toks   []token
	i      int
	src    string
	params int
}

func (p *parser) cur() token { return p.toks[p.i] }

// next consumes the current token. It never moves past tokEOF, which every
// later read then sees.
func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the token if it matches.
func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errf("expected %s, found %q", want, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: %s (at byte %d in %q)",
		fmt.Sprintf(format, args...), p.cur().pos, truncate(p.src))
}

func truncate(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(tokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(tokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(tokKeyword, "DROP"):
		return nil, p.unsupported("DROP TABLE")
	case p.at(tokKeyword, "SHOW"):
		p.next()
		// WAL, like STATUS below, is contextual: nothing stops a schema
		// from having a column named "wal".
		if p.acceptIdent("WAL") {
			if !p.acceptIdent("STATUS") {
				return nil, p.errf("expected STATUS after SHOW WAL, found %q", p.cur().text)
			}
			return &ShowWALStatus{}, nil
		}
		if p.accept(tokKeyword, "TABLE") {
			// STATUS is contextual, not reserved: it is a live column name
			// (orders.status) in the benchmark schemas.
			if !p.acceptIdent("STATUS") {
				return nil, p.errf("expected STATUS after SHOW TABLE")
			}
			return &ShowTableStatus{}, nil
		}
		if p.at(tokKeyword, "TABLES") {
			return nil, p.unsupported("SHOW TABLES")
		}
		return nil, p.errf("expected TABLE STATUS or WAL STATUS after SHOW, found %q", p.cur().text)
	case p.at(tokKeyword, "ALTER"):
		return p.parseAlter()
	case p.at(tokKeyword, "START"):
		return nil, p.unsupported("START TRANSACTION")
	case p.accept(tokKeyword, "BEGIN"):
		return &Begin{}, p.noWork()
	case p.accept(tokKeyword, "COMMIT"):
		return &Commit{}, p.noWork()
	case p.accept(tokKeyword, "ROLLBACK"):
		return &Rollback{}, p.noWork()
	default:
		// PREPARE is contextual (tokIdent) so columns named "prepare" would
		// still lex as identifiers elsewhere.
		if p.acceptIdent("PREPARE") {
			if _, err := p.expect(tokKeyword, "TRANSACTION"); err != nil {
				return nil, err
			}
			return &PrepareTxn{}, nil
		}
		return nil, p.errf("unsupported statement beginning with %q", p.cur().text)
	}
}

// noWork refuses the WORK after BEGIN, COMMIT or ROLLBACK.
func (p *parser) noWork() error {
	if p.at(tokKeyword, "WORK") {
		return p.unsupported("WORK")
	}
	return nil
}

// acceptIdent consumes an identifier matching text case-insensitively —
// contextual keywords (STATUS, STRIDE, NEXT, PREPARE) that must stay usable
// as column names.
func (p *parser) acceptIdent(text string) bool {
	if p.at(tokIdent, "") && strings.EqualFold(p.cur().text, text) {
		p.i++
		return true
	}
	return false
}

// parseAlter parses ALTER TABLE t AUTO_INCREMENT [OFFSET o] [STRIDE s] [NEXT n].
func (p *parser) parseAlter() (Statement, error) {
	p.next() // ALTER
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "AUTO_INCREMENT"); err != nil {
		return nil, err
	}
	al := &AlterAutoInc{Table: name}
	seen := false
	for {
		var dst *int64
		switch {
		case p.accept(tokKeyword, "OFFSET"):
			dst = &al.Offset
		case p.acceptIdent("STRIDE"):
			dst = &al.Stride
		case p.acceptIdent("NEXT"):
			dst = &al.Next
		default:
			if !seen {
				return nil, p.errf("ALTER TABLE ... AUTO_INCREMENT needs OFFSET, STRIDE or NEXT")
			}
			return al, nil
		}
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		*dst = int64(n)
		seen = true
	}
}

func (p *parser) parseIdent() (string, error) {
	if p.at(tokIdent, "") {
		return p.next().text, nil
	}
	return "", p.errf("expected identifier, found %q", p.cur().text)
}

func (p *parser) parseSelect() (*Select, error) {
	p.next() // SELECT
	sel := &Select{Limit: -1}
	if p.at(tokKeyword, "DISTINCT") {
		return nil, p.unsupported("SELECT DISTINCT")
	}
	if p.accept(tokSymbol, "*") {
		sel.Star = true
	} else {
		for {
			if p.accept(tokKeyword, "COUNT") {
				if err := p.parseCountStar(); err != nil {
					return nil, err
				}
				if sel.Count {
					return nil, p.unsupported("more than one COUNT(*)")
				}
				sel.Count = true
			} else {
				col, err := p.parseColumn("select item")
				if err != nil {
					return nil, err
				}
				sel.Columns = append(sel.Columns, col)
			}
			if p.at(tokKeyword, "AS") || p.at(tokIdent, "") {
				return nil, p.unsupported("select-item alias")
			}
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if sel.Count && len(sel.Columns) > 0 {
			return nil, p.unsupported("COUNT(*) beside a column (GROUP BY)")
		}
	}
	kw, err := p.expect(tokKeyword, "FROM")
	if err != nil {
		return nil, err
	}
	sel.FromPos = kw.pos
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	sel.From = from
	if p.at(tokKeyword, "INNER") {
		return nil, p.unsupported("INNER JOIN")
	}
	if p.accept(tokKeyword, "JOIN") {
		if sel.Star {
			return nil, p.unsupported("SELECT * over a JOIN")
		}
		if sel.Join, err = p.parseJoin(); err != nil {
			return nil, err
		}
		if p.at(tokKeyword, "JOIN") {
			return nil, p.unsupported("more than one JOIN")
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.at(tokKeyword, "GROUP") {
		return nil, p.unsupported("GROUP BY")
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		col, err := p.parseColumn("ORDER BY key")
		if err != nil {
			return nil, err
		}
		if p.at(tokKeyword, "ASC") {
			return nil, p.unsupported("ASC")
		}
		sel.OrderBy = &OrderItem{Col: col, Desc: p.accept(tokKeyword, "DESC")}
		if p.at(tokSymbol, ",") {
			return nil, p.unsupported("more than one ORDER BY key")
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
		switch {
		case p.at(tokKeyword, "OFFSET"):
			return nil, p.unsupported("LIMIT ... OFFSET")
		case p.at(tokSymbol, ","):
			return nil, p.unsupported("LIMIT offset, count")
		}
	}
	return sel, nil
}

// parseJoin parses what follows JOIN: table ON column = column.
func (p *parser) parseJoin() (*Join, error) {
	tr, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	on, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	j := &Join{Table: tr}
	if be, ok := on.(*BinaryExpr); ok && be.Op == OpEq {
		j.L, _ = be.L.(*ColRefExpr)
		j.R, _ = be.R.(*ColRefExpr)
	}
	if j.L == nil || j.R == nil {
		return nil, p.unsupported("JOIN ON other than column = column")
	}
	return j, nil
}

// parseCountStar parses the "(*)" after COUNT.
func (p *parser) parseCountStar() error {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return err
	}
	if !p.accept(tokSymbol, "*") {
		return p.unsupported("COUNT(expr)")
	}
	_, err := p.expect(tokSymbol, ")")
	return err
}

// parseColumn parses a select item or an ORDER BY key (what): a column
// reference, the one expression the dialect allows there.
func (p *parser) parseColumn(what string) (*ColRefExpr, error) {
	e, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	col, ok := e.(*ColRefExpr)
	if !ok {
		return nil, p.unsupported(what + " other than a column")
	}
	return col, nil
}

// unsupported is the error for a SQL feature the dialect leaves out (see the
// package comment), naming it.
func (p *parser) unsupported(feature string) error {
	return p.errf("%s is not in the dialect", feature)
}

func (p *parser) parseInt() (int, error) {
	t, err := p.expect(tokNumber, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.text)
	}
	return n, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.parseIdent()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Table: name}
	if p.at(tokKeyword, "AS") {
		return tr, p.unsupported("AS table alias")
	}
	if p.at(tokIdent, "") {
		tr.Alias = p.next().text
	}
	return tr, nil
}

func (p *parser) parseInsert() (*Insert, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if !p.accept(tokSymbol, "(") {
		return nil, p.unsupported("INSERT without a column list")
	}
	for {
		c, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		ins.Columns = append(ins.Columns, c)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (*Update, error) {
	p.next() // UPDATE
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	up := &Update{Table: table}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: v})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *parser) parseDelete() (*Delete, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: table}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	unique := p.accept(tokKeyword, "UNIQUE")
	switch {
	case p.accept(tokKeyword, "TABLE"):
		ct := &CreateTable{}
		if p.at(tokKeyword, "IF") {
			return nil, p.unsupported("IF NOT EXISTS")
		}
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		ct.Name = name
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			if p.at(tokKeyword, "PRIMARY") {
				return nil, p.unsupported("PRIMARY KEY (col) table constraint")
			}
			cd, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, cd)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return ct, nil
	case p.accept(tokKeyword, "INDEX"):
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		table, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &CreateIndex{Name: name, Table: table, Column: col, Unique: unique}, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	var cd ColumnDef
	name, err := p.parseIdent()
	if err != nil {
		return cd, err
	}
	cd.Name = name
	t := p.next()
	if t.kind != tokKeyword {
		return cd, p.errf("expected column type, found %q", t.text)
	}
	switch t.text {
	case "INT":
		cd.Type = TypeInt
	case "FLOAT":
		cd.Type = TypeFloat
	case "VARCHAR", "TEXT":
		cd.Type = TypeString
	default:
		return cd, p.unsupported("column type " + t.text)
	}
	// optional (length)
	if p.accept(tokSymbol, "(") {
		if _, err := p.parseInt(); err != nil {
			return cd, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return cd, err
		}
	}
	for {
		switch {
		case p.accept(tokKeyword, "PRIMARY"):
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return cd, err
			}
			cd.PrimaryKey = true
		case p.accept(tokKeyword, "AUTO_INCREMENT"):
			cd.AutoIncrement = true
		case p.accept(tokKeyword, "NOT"):
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return cd, err
			}
			cd.NotNull = true
		case p.at(tokKeyword, "DEFAULT"):
			return cd, p.unsupported("column DEFAULT")
		default:
			return cd, nil
		}
	}
}

// Expression grammar, lowest to highest precedence:
//
//	and    := cmp (AND cmp)*
//	cmp    := add [(= | LIKE) add]
//	add    := unary ((+ | -) unary)*
//	unary  := - unary | primary
//	primary:= integer | string | ? | column | table.column
//
// An operator the dialect leaves out fails where it stands, naming itself.
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	if p.at(tokKeyword, "OR") {
		return nil, p.unsupported("OR")
	}
	return l, nil
}

func (p *parser) parseCmp() (Expr, error) {
	if p.at(tokKeyword, "NOT") {
		return nil, p.unsupported("NOT")
	}
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	op := OpEq
	switch {
	case p.accept(tokSymbol, "="):
	case p.accept(tokKeyword, "LIKE"):
		op = OpLike
	default:
		return l, nil
	}
	r, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return &BinaryExpr{Op: op, L: l, R: r}, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := OpAdd
		switch {
		case p.accept(tokSymbol, "+"):
		case p.accept(tokSymbol, "-"):
			op = OpSub
		default:
			return l, p.leftOutOperator()
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

// leftOutOperator is the error for an operator the dialect leaves out
// standing after an operand, naming it; nil when the token is none.
func (p *parser) leftOutOperator() error {
	t := p.cur()
	if t.kind != tokSymbol && t.kind != tokKeyword {
		return nil
	}
	switch t.text {
	case "<>", "!=", "<", "<=", ">", ">=", "*", "/", "%", "IN", "NOT", "BETWEEN":
		return p.unsupported("operator " + t.text)
	case "IS":
		return p.unsupported("IS [NOT] NULL")
	}
	return nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NegExpr{E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		if strings.Contains(t.text, ".") {
			return nil, p.unsupported("float literal")
		}
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &IntLit{V: n}, nil
	case tokString:
		p.next()
		return &StringLit{V: t.text}, nil
	case tokParam:
		p.next()
		e := &ParamExpr{Index: p.params}
		p.params++
		return e, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			return nil, p.unsupported("NULL literal")
		case "TRUE", "FALSE":
			return nil, p.unsupported(t.text)
		case "SUM", "MIN", "MAX", "AVG":
			return nil, p.unsupported(t.text + "()")
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		p.next()
		if p.accept(tokSymbol, ".") {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			return &ColRefExpr{Table: t.text, Column: col}, nil
		}
		return &ColRefExpr{Column: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			return nil, p.unsupported("parenthesized expression")
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}
