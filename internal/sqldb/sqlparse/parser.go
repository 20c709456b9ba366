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
	case *DropTable:
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
		return p.parseDrop()
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
		if _, err := p.expect(tokKeyword, "TABLES"); err != nil {
			return nil, err
		}
		return &ShowTables{}, nil
	case p.at(tokKeyword, "ALTER"):
		return p.parseAlter()
	case p.at(tokKeyword, "BEGIN"):
		p.next()
		p.accept(tokKeyword, "WORK")
		return &Begin{}, nil
	case p.at(tokKeyword, "START"):
		p.next()
		if _, err := p.expect(tokKeyword, "TRANSACTION"); err != nil {
			return nil, err
		}
		return &Begin{}, nil
	case p.at(tokKeyword, "COMMIT"):
		p.next()
		p.accept(tokKeyword, "WORK")
		return &Commit{}, nil
	case p.at(tokKeyword, "ROLLBACK"):
		p.next()
		p.accept(tokKeyword, "WORK")
		return &Rollback{}, nil
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
		counts := 0
		for {
			e, err := p.parseSelectExpr()
			if err != nil {
				return nil, err
			}
			if _, ok := e.(*AggExpr); ok {
				counts++
			}
			item := SelectItem{Expr: e}
			if p.accept(tokKeyword, "AS") {
				a, err := p.parseIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.at(tokIdent, "") {
				item.Alias = p.next().text
			}
			sel.Items = append(sel.Items, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if counts > 0 && counts < len(sel.Items) {
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
	for {
		if p.accept(tokKeyword, "INNER") || p.at(tokKeyword, "JOIN") {
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
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
			sel.Joins = append(sel.Joins, Join{Table: tr, On: on})
			continue
		}
		break
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
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				oi.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, oi)
			if !p.accept(tokSymbol, ",") {
				break
			}
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

// parseSelectExpr parses one select item: COUNT(*), or an expression.
func (p *parser) parseSelectExpr() (Expr, error) {
	if !p.accept(tokKeyword, "COUNT") {
		return p.parseExpr()
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	if !p.accept(tokSymbol, "*") {
		return nil, p.unsupported("COUNT(expr)")
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return &AggExpr{}, nil
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
	if p.accept(tokKeyword, "AS") {
		a, err := p.parseIdent()
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = a
	} else if p.at(tokIdent, "") {
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
	if p.accept(tokSymbol, "(") {
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
		if p.accept(tokKeyword, "IF") {
			if _, err := p.expect(tokKeyword, "NOT"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
				return nil, err
			}
			ct.IfNotExists = true
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
			if p.accept(tokKeyword, "PRIMARY") {
				// PRIMARY KEY (col) table constraint
				if _, err := p.expect(tokKeyword, "KEY"); err != nil {
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
				found := false
				for i := range ct.Columns {
					if strings.EqualFold(ct.Columns[i].Name, col) {
						ct.Columns[i].PrimaryKey = true
						found = true
					}
				}
				if !found {
					return nil, p.errf("PRIMARY KEY names unknown column %q", col)
				}
			} else {
				cd, err := p.parseColumnDef()
				if err != nil {
					return nil, err
				}
				ct.Columns = append(ct.Columns, cd)
			}
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
	case "INT", "INTEGER", "BIGINT", "DATETIME":
		cd.Type = TypeInt
	case "FLOAT", "DOUBLE":
		cd.Type = TypeFloat
	case "VARCHAR", "TEXT", "CHAR":
		cd.Type = TypeString
	default:
		return cd, p.errf("unsupported column type %q", t.text)
	}
	// optional (length)
	if p.accept(tokSymbol, "(") {
		if _, err := p.expect(tokNumber, ""); err != nil {
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
		case p.accept(tokKeyword, "DEFAULT"):
			// accept and ignore a literal default
			if _, err := p.parsePrimary(); err != nil {
				return cd, err
			}
		default:
			return cd, nil
		}
	}
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	dt := &DropTable{}
	if p.accept(tokKeyword, "IF") {
		if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		dt.IfExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	dt.Name = name
	return dt, nil
}

// Expression grammar, lowest to highest precedence:
//
//	or   := and (OR and)*
//	and  := not (AND not)*
//	not  := NOT not | cmp
//	cmp  := add ((=|<>|<|<=|>|>=|LIKE) add | IS [NOT] NULL |
//	        [NOT] IN (list) | BETWEEN add AND add)?
//	add  := mul ((+|-) mul)*
//	mul  := unary ((*|/) unary)*
//	unary:= - unary | primary
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	switch {
	case p.at(tokSymbol, "="), p.at(tokSymbol, "<>"), p.at(tokSymbol, "!="),
		p.at(tokSymbol, "<"), p.at(tokSymbol, "<="), p.at(tokSymbol, ">"),
		p.at(tokSymbol, ">="):
		opTok := p.next().text
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		var op BinaryOp
		switch opTok {
		case "=":
			op = OpEq
		case "<>", "!=":
			op = OpNe
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		}
		return &BinaryExpr{Op: op, L: l, R: r}, nil
	case p.accept(tokKeyword, "LIKE"):
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: OpLike, L: l, R: r}, nil
	case p.accept(tokKeyword, "IS"):
		not := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: not}, nil
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi}, nil
	case p.at(tokKeyword, "IN"), p.at(tokKeyword, "NOT"):
		not := false
		if p.at(tokKeyword, "NOT") {
			// only consume NOT IN here; bare NOT was handled above
			if p.i+1 < len(p.toks) && p.toks[p.i+1].text == "IN" {
				p.next()
				not = true
			} else {
				return l, nil
			}
		}
		if !p.accept(tokKeyword, "IN") {
			return l, nil
		}
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		in := &InExpr{E: l, Not: not}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return in, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokSymbol, "+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpAdd, L: l, R: r}
		case p.accept(tokSymbol, "-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokSymbol, "*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpMul, L: l, R: r}
		case p.accept(tokSymbol, "/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpDiv, L: l, R: r}
		default:
			return l, nil
		}
	}
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
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &FloatLit{V: f}, nil
		}
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
			p.next()
			return &NullLit{}, nil
		case "TRUE":
			p.next()
			return &IntLit{V: 1}, nil
		case "FALSE":
			p.next()
			return &IntLit{V: 0}, nil
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
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}
