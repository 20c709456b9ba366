package pool

// The fold tests (package pool_test, fold_test.go) import internal/telemetry,
// which imports this package; they borrow from the same slow-dial pools.
var (
	SlowDialPool = slowDialPool
	Borrow       = borrow
)

const SlowDial = slowDial
