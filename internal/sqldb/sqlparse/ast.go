package sqlparse

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColType is a column's declared type.
type ColType int

const (
	TypeInt ColType = iota
	TypeFloat
	TypeString
)

func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	default:
		return "?"
	}
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name          string
	Type          ColType
	PrimaryKey    bool
	AutoIncrement bool
	NotNull       bool
}

// CreateTable is CREATE TABLE name (cols...).
type CreateTable struct {
	Name    string
	Columns []ColumnDef
	Src     string // original statement text (see Statement Src note below)
}

// CreateIndex is CREATE [UNIQUE] INDEX name ON table (column).
type CreateIndex struct {
	Name   string
	Table  string
	Column string
	Unique bool
	Src    string
}

// Insert is INSERT INTO table (cols) VALUES (exprs), (exprs)...
//
// Mutation statements carry Src, the exact source text Parse consumed: the
// write-ahead log records mutations logically (statement text + bound args),
// and prepared statements reach execution as bare ASTs, so the text must
// travel with the AST. Parse fills it; hand-built ASTs may leave it empty
// (such statements simply cannot be WAL-logged).
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Src     string
}

// Update is UPDATE table SET col=expr,... [WHERE expr].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
	Src   string
}

// Assignment is one col=expr pair in UPDATE ... SET.
type Assignment struct {
	Column string
	Value  Expr
}

// Delete is DELETE FROM table [WHERE expr].
type Delete struct {
	Table string
	Where Expr
	Src   string
}

// Select is a SELECT statement over one table, or two joined on a column
// equality. Its select list is * (one table only), COUNT(*) (one row, one
// column: the number of qualifying rows) or column references.
type Select struct {
	Star    bool
	Count   bool
	Columns []*ColRefExpr // the select list when it is neither * nor COUNT(*)
	From    TableRef
	Join    *Join // nil without a JOIN
	Where   Expr
	OrderBy *OrderItem // nil without ORDER BY
	Limit   int        // -1 when absent
	// FromPos is the byte offset of the FROM keyword in the text given to
	// Parse, for callers that rewrite the select list.
	FromPos int
}

// TableRef names a table with an optional alias (FROM items i; no AS).
type TableRef struct {
	Table string
	Alias string
}

// Name returns the alias if present, otherwise the table name.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// Join is JOIN table ON l = r: an equality of two columns, which is every
// join the benchmarks issue.
type Join struct {
	Table TableRef
	L, R  *ColRefExpr
}

// OrderItem is the ORDER BY key: one column, ascending unless Desc.
type OrderItem struct {
	Col  *ColRefExpr
	Desc bool
}

// ShowTableStatus is SHOW TABLE STATUS: one row per table with its row count
// and AUTO_INCREMENT state (next value, offset, stride). The replica-sync
// path uses it to carry id-assignment state to the destination exactly.
type ShowTableStatus struct{}

// AlterAutoInc is ALTER TABLE t AUTO_INCREMENT [OFFSET o] [STRIDE s] [NEXT n]:
// it configures strided id assignment (MySQL's auto_increment_offset /
// auto_increment_increment) so each shard of a partitioned table draws ids
// from a disjoint congruence class. A zero field is a clause the statement
// leaves out, so that setting stays (Parse refuses a zero clause); NEXT pins
// the counter exactly (the sync path's use).
type AlterAutoInc struct {
	Table  string
	Offset int64
	Stride int64
	Next   int64
	Src    string
}

// ShowWALStatus is SHOW WAL STATUS: one row describing the write-ahead log —
// whether one is attached, the last assigned LSN, the durable LSN and the
// checkpoint LSN. It is the only view of a backend's log on the wire.
type ShowWALStatus struct{}

// PrepareTxn is PREPARE TRANSACTION — phase one of two-phase commit. The
// open transaction keeps its locks and undo log but accepts no further
// statements until COMMIT or ROLLBACK.
type PrepareTxn struct{}

// Begin is BEGIN: it opens a multi-statement transaction on the session.
type Begin struct{}

// Commit is COMMIT.
type Commit struct{}

// Rollback is ROLLBACK.
type Rollback struct{}

func (*CreateTable) stmt()     {}
func (*CreateIndex) stmt()     {}
func (*Insert) stmt()          {}
func (*Update) stmt()          {}
func (*Delete) stmt()          {}
func (*Select) stmt()          {}
func (*ShowTableStatus) stmt() {}
func (*ShowWALStatus) stmt()   {}
func (*AlterAutoInc) stmt()    {}
func (*PrepareTxn) stmt()      {}
func (*Begin) stmt()           {}
func (*Commit) stmt()          {}
func (*Rollback) stmt()        {}

// Expr is an expression node.
type Expr interface{ expr() }

// BinaryOp enumerates binary operators.
type BinaryOp int

const (
	OpEq BinaryOp = iota
	OpAnd
	OpAdd
	OpSub
	OpLike
)

func (op BinaryOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpAnd:
		return "AND"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpLike:
		return "LIKE"
	default:
		return "?"
	}
}

// BinaryExpr applies op to two operands.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

// NegExpr is arithmetic negation.
type NegExpr struct{ E Expr }

// ColRefExpr references a column, optionally qualified ("t.col").
type ColRefExpr struct {
	Table  string // empty when unqualified
	Column string
}

// IntLit / StringLit are literals. A float or NULL value is a '?' argument.
type IntLit struct{ V int64 }
type StringLit struct{ V string }

// ParamExpr is the i-th '?' placeholder (0-based).
type ParamExpr struct{ Index int }

func (*BinaryExpr) expr() {}
func (*NegExpr) expr()    {}
func (*ColRefExpr) expr() {}
func (*IntLit) expr()     {}
func (*StringLit) expr()  {}
func (*ParamExpr) expr()  {}
