package sqldb

import "repro/internal/sqldb/sqlparse"

// defaultPlanCacheSize bounds the plan cache; both benchmarks together issue
// a few dozen distinct statements, so this never evicts in practice while
// still capping memory against pathological clients.
const defaultPlanCacheSize = 1024

// Prepare parses query through the plan cache, returning the shared AST.
//
// The plan cache is the database's shared prepared-statement cache: parsed
// ASTs keyed by the query text verbatim. Every session's Exec goes through
// it, so a statement the application tiers repeat — the dominant pattern of
// both benchmarks — is parsed at most once for the whole server, whether it
// arrives as a text query or over the wire protocol's EXECUTE-by-id fast
// path. Cached statements are shared across sessions; the executor treats
// ASTs as read-only, which makes that safe.
func (db *DB) Prepare(query string) (sqlparse.Statement, error) {
	if stmt, ok := db.plans.Get(query, nil); ok {
		return stmt, nil
	}
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		return nil, err
	}
	db.plans.Put(query, stmt)
	return stmt, nil
}
