package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/core"
	"repro/internal/perfsim"
	"repro/internal/sqldb"
)

// writeRule pins how one table's row count must move: by exactly the number
// of successful interactions of the named types (or at least that many).
// A table with no interactions must not move at all.
type writeRule struct {
	Table   string
	Inters  []string
	AtLeast bool
}

// The applications' exact rules. Auction: each write interaction inserts
// one row into its table (the UPDATEs beside it change no count).
// Bookstore: buyconfirm inserts one order, one credit_info row and one
// order_line per cart line (an empty cart is filled with one item first,
// so at least one); customerregistration inserts a customer and an
// address; shoppingcart keeps the cart in session state and adminconfirm
// only UPDATEs items, so both legitimately change no row count.
var writeRules = map[perfsim.Benchmark][]writeRule{
	perfsim.Auction: {
		{Table: "bids", Inters: []string{"storebid"}},
		{Table: "comments", Inters: []string{"storecomment"}},
		{Table: "buy_now", Inters: []string{"storebuynow"}},
		{Table: "users", Inters: []string{"registeruser"}},
		{Table: "items", Inters: []string{"registeritem"}},
	},
	perfsim.Bookstore: {
		{Table: "orders", Inters: []string{"buyconfirm"}},
		{Table: "credit_info", Inters: []string{"buyconfirm"}},
		{Table: "order_line", Inters: []string{"buyconfirm"}, AtLeast: true},
		{Table: "customers", Inters: []string{"customerregistration"}},
		{Table: "address", Inters: []string{"customerregistration"}},
		{Table: "items"},
	},
}

// rowCounts reads COUNT(*) of every rule table through the app tier's own
// cluster client, so a sharded tier answers with the merged count.
func rowCounts(lab *core.Lab, rules []writeRule) (map[string]int64, error) {
	out := make(map[string]int64, len(rules))
	for _, r := range rules {
		res, err := lab.Cluster().Exec("SELECT COUNT(*) FROM " + r.Table)
		if err != nil {
			return nil, fmt.Errorf("count %s: %w", r.Table, err)
		}
		out[r.Table] = res.Rows[0][0].AsInt()
	}
	return out, nil
}

// checkWrites compares row-count deltas with the write interactions the
// loader saw succeed (okByName) and returns one line per mismatch. A failed
// interaction may or may not have committed (an abort did not, a timed-out
// reply may have), so each one widens its table's allowance by one row.
func checkWrites(rules []writeRule, before, after map[string]int64, okByName, failedByName map[string]int) []string {
	var bad []string
	for _, r := range rules {
		var want, slack int64
		for _, in := range r.Inters {
			want += int64(okByName[in])
			slack += int64(failedByName[in])
		}
		got := after[r.Table] - before[r.Table]
		if got >= want && (got <= want+slack || r.AtLeast) {
			continue
		}
		bad = append(bad, fmt.Sprintf("table %s grew by %d rows, want %d (%s; %d failed)",
			r.Table, got, want, strings.Join(r.Inters, "+"), slack))
	}
	return bad
}

// tableDigest is one table's row count and an order-independent checksum
// of its contents (the sum of each row's hash).
type tableDigest struct {
	Rows int
	Sum  uint64
}

func digest(db *sqldb.DB) (map[string]tableDigest, error) {
	sess := db.NewSession()
	defer sess.Close()
	out := make(map[string]tableDigest)
	for _, t := range db.TableNames() {
		res, err := sess.Exec("SELECT * FROM " + t)
		if err != nil {
			return nil, fmt.Errorf("digest %s: %w", t, err)
		}
		d := tableDigest{Rows: len(res.Rows)}
		for _, row := range res.Rows {
			h := fnv.New64a()
			for _, v := range row {
				h.Write([]byte(v.String()))
				h.Write([]byte{0})
			}
			d.Sum += h.Sum64()
		}
		out[t] = d
	}
	return out, nil
}

// diffDigests lists the tables on which b differs from a.
func diffDigests(a, b map[string]tableDigest) []string {
	var bad []string
	for t, da := range a {
		if db, ok := b[t]; !ok || db != da {
			bad = append(bad, fmt.Sprintf("%s: %d rows/%x vs %d rows/%x", t, da.Rows, da.Sum, db.Rows, db.Sum))
		}
	}
	for t := range b {
		if _, ok := a[t]; !ok {
			bad = append(bad, t+": missing")
		}
	}
	return bad
}

// checkReplicas verifies that every replica of each shard group holds the
// same rows as the group's first replica.
func checkReplicas(lab *core.Lab, shards, replicas int) ([]string, error) {
	var bad []string
	for s := 0; s < shards; s++ {
		ref, err := digest(lab.ReplicaDB(s * replicas))
		if err != nil {
			return nil, err
		}
		for r := 1; r < replicas; r++ {
			got, err := digest(lab.ReplicaDB(s*replicas + r))
			if err != nil {
				return nil, err
			}
			for _, line := range diffDigests(ref, got) {
				bad = append(bad, fmt.Sprintf("shard %d replica %d diverged: %s", s, r, line))
			}
		}
	}
	return bad, nil
}

// checkDurable power-cuts replica 1's write-ahead log, recovers a fresh
// engine from its data directory and compares it with the survivor: every
// acknowledged commit must be there. The crash is process-level — the log
// drops what it had not fsynced, but the OS page cache survives, so this
// checks the log's ack-after-fsync ordering, not the disk.
func checkDurable(lab *core.Lab) ([]string, error) {
	if err := lab.CrashReplica(1); err != nil {
		return nil, err
	}
	if _, err := lab.RestartReplicaFromDisk(1); err != nil {
		return nil, err
	}
	survivor, err := digest(lab.ReplicaDB(0))
	if err != nil {
		return nil, err
	}
	recovered, err := digest(lab.ReplicaDB(1))
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, line := range diffDigests(survivor, recovered) {
		bad = append(bad, "recovered replica lost acknowledged commits: "+line)
	}
	return bad, nil
}
