package sqldb

// IndexLeafFill returns how full db's index trees' leaves are: the entries
// they hold over the treeFan slots they have, across every index of every
// table.
func IndexLeafFill(db *DB) float64 {
	var entries, slots int
	var walk func(n *cowNode[ixEntry, rowRef])
	walk = func(n *cowNode[ixEntry, rowRef]) {
		if n.kids == nil {
			entries, slots = entries+n.n, slots+treeFan
			return
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	for _, name := range db.TableNames() {
		t, _ := db.Table(name)
		t.mu.Lock()
		for _, p := range t.postings {
			if p.root != nil {
				walk(p.root)
			}
		}
		t.mu.Unlock()
	}
	return float64(entries) / float64(slots)
}
