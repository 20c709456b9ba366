package sqldb

import "slices"

// cowTree is the engine's one storage structure: an ordered B+-tree whose
// clone is O(1). A table's rows are one tree keyed by rowid (so a scan is
// rowid order) and each index is one keyed by (word of the column value,
// rowid) and holding the row (so a lookup is a contiguous run, and one
// descent); a table's state is a handful of tree headers that can be handed
// to any number of readers.
//
// Sharing is by ownership token. Every node records the token of the tree
// that may write it in place; clone gives both sides a fresh token, so every
// node that existed before the clone is from then on foreign to both and is
// copied by whichever side writes through it first (path copying: O(fan ·
// height) per write after a clone, nothing per write otherwise). A clone that
// is only read therefore never changes, however its origin is written
// afterwards — the property FuzzCowTree and the model test hold it to.
//
// Deletion does not rebalance: an emptied node is unlinked from its parent
// and nothing else moves, so nodes may run under-full but the height never
// exceeds what the insertions built (Sen & Tarjan, "Deletion without
// rebalancing in multiway search trees", 2009). Both applications' tables
// grow; the few that shrink are emptied from one end.
type cowTree[K, V any] struct {
	root  *cowNode[K, V]
	n     int
	owner *byte // ownership token, shared by all trees of one table state
	// search returns the position of k in a node's sorted keys, or where it
	// would go. It is the key order, supplied as the whole binary search so
	// each key type's compares are inlined in its own loop, not called
	// through a func value once per compare.
	search func(keys []K, k K) (int, bool)
	// run, when set, reports whether two keys are one run — an index's
	// entries under one word, its posting list for one value — which is what
	// the split rule in insert packs (nil for the rows trees).
	run func(a, b K) bool
}

// treeFan is the most keys a node holds. A path copy moves fan · height
// entries and a search compares log2(fan) · height keys, so the choice is
// flat — probes and bulk fills measured the same at 16, 32 and 64; 32 keeps
// 35 k rows at three levels.
const treeFan = 32

// cowNode is a leaf (kids nil: n keys and their values) or an interior node
// (kids[i] holds the keys below keys[i], kids[i+1] the rest; vals unused).
// Keys and values are arrays inside the node, not slices beside it: a
// descent then follows one pointer per level, and a path copy is one
// allocation per node (two for the few interior ones).
type cowNode[K, V any] struct {
	owner *byte
	n     int
	keys  [treeFan + 1]K // one over: a node overfills by an entry, then splits
	vals  [treeFan + 1]V
	kids  []*cowNode[K, V]
}

// clone returns a tree that shares every node with t. Both are writable and
// neither sees the other's later writes. The caller passes the token each
// side continues under (a table state clones all its trees under one pair).
func (t *cowTree[K, V]) clone(mine, theirs *byte) cowTree[K, V] {
	t.owner = mine
	return cowTree[K, V]{root: t.root, n: t.n, owner: theirs, search: t.search, run: t.run}
}

func (t *cowTree[K, V]) len() int { return t.n }

// child returns which kid of interior node n covers k: a key equal to a
// separator lives to its right.
func (t *cowTree[K, V]) child(n *cowNode[K, V], k K) int {
	i, found := t.search(n.keys[:n.n], k)
	if found {
		i++
	}
	return i
}

func (t *cowTree[K, V]) get(k K) (v V, ok bool) {
	n := t.root
	if n == nil {
		return v, false
	}
	for n.kids != nil {
		n = n.kids[t.child(n, k)]
	}
	if i, found := t.search(n.keys[:n.n], k); found {
		return n.vals[i], true
	}
	return v, false
}

// ascend calls fn for every entry with key >= from, in key order, until fn
// returns false. from nil starts at the least key.
func (t *cowTree[K, V]) ascend(from *K, fn func(K, V) bool) {
	if t.root != nil {
		t.walk(t.root, from, fn)
	}
}

func (t *cowTree[K, V]) walk(n *cowNode[K, V], from *K, fn func(K, V) bool) bool {
	i := 0
	if n.kids == nil {
		if from != nil {
			i, _ = t.search(n.keys[:n.n], *from)
		}
		for ; i < n.n; i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	if from != nil {
		i = t.child(n, *from)
	}
	for ; i < len(n.kids); i++ {
		if !t.walk(n.kids[i], from, fn) {
			return false
		}
		from = nil // only the first subtree is entered mid-way
	}
	return true
}

// own returns n if this tree may write it in place, else a copy it may.
func (t *cowTree[K, V]) own(n *cowNode[K, V]) *cowNode[K, V] {
	if n.owner == t.owner {
		return n
	}
	c := *n
	c.owner = t.owner
	if n.kids != nil {
		c.kids = append(make([]*cowNode[K, V], 0, treeFan+2), n.kids...)
	}
	return &c
}

// insertAt makes x the i-th of the n entries in use of a, which has room.
func insertAt[T any](a []T, n, i int, x T) {
	copy(a[i+1:n+1], a[i:n])
	a[i] = x
}

// removeAt drops the i-th of the n entries in use of a.
func removeAt[T any](a []T, n, i int) {
	copy(a[i:], a[i+1:n])
	clear(a[n-1 : n])
}

// set stores v under k, replacing what was there.
func (t *cowTree[K, V]) set(k K, v V) {
	if t.root == nil {
		t.root = &cowNode[K, V]{owner: t.owner}
	}
	t.root = t.own(t.root)
	if sep, right := t.insert(t.root, k, v); right != nil {
		root := &cowNode[K, V]{owner: t.owner, n: 1, kids: make([]*cowNode[K, V], 0, treeFan+2)}
		root.keys[0] = sep
		root.kids = append(root.kids, t.root, right)
		t.root = root
	}
}

// insert puts (k, v) below n, which the tree owns, and splits n when that
// overfills it: the new right sibling and the separator before it go back
// to the caller.
func (t *cowTree[K, V]) insert(n *cowNode[K, V], k K, v V) (sep K, right *cowNode[K, V]) {
	var at int
	var extends bool // k went in right after a key of its run
	if n.kids == nil {
		i, found := t.search(n.keys[:n.n], k)
		if found {
			n.vals[i] = v
			return sep, nil
		}
		insertAt(n.keys[:], n.n, i, k)
		insertAt(n.vals[:], n.n, i, v)
		t.n++
		at = i
		extends = t.run != nil && i > 0 && t.run(n.keys[i-1], k)
	} else {
		i := t.child(n, k)
		kid := t.own(n.kids[i])
		n.kids[i] = kid
		s, r := t.insert(kid, k, v)
		if r == nil {
			return sep, nil
		}
		insertAt(n.keys[:], n.n, i, s)
		n.kids = slices.Insert(n.kids, i+1, r)
		at = i
	}
	if n.n++; n.n <= treeFan {
		return sep, nil
	}
	// Split in the middle — unless the entry went in at the end, which is
	// what ascending rowids and AUTO_INCREMENT keys always do: then the left
	// node stays full and the new one starts with the last entry, so a table
	// filled in key order is packed, not half empty. Likewise an entry that
	// extends a run in a leaf, which is what a posting list appended in rowid
	// order always does: the leaf splits after it, so the run's next entries
	// go on filling the left node and the keys past the run start the right.
	mid := n.n / 2
	switch {
	case at == n.n-1:
		mid = at
	case extends:
		mid = at + 1
	}
	right = &cowNode[K, V]{owner: t.owner}
	sep = n.keys[mid]
	if n.kids == nil {
		right.n = copy(right.keys[:], n.keys[mid:n.n])
		copy(right.vals[:], n.vals[mid:n.n])
		clear(n.vals[mid:n.n])
	} else {
		// The separator moves up; the kids to its right move over.
		right.n = copy(right.keys[:], n.keys[mid+1:n.n])
		right.kids = append(make([]*cowNode[K, V], 0, treeFan+2), n.kids[mid+1:]...)
		clear(n.kids[mid+1:])
		n.kids = n.kids[:mid+1]
	}
	clear(n.keys[mid:n.n])
	n.n = mid
	return sep, right
}

// delete removes k and reports whether it was there.
func (t *cowTree[K, V]) delete(k K) bool {
	if t.root == nil {
		return false
	}
	t.root = t.own(t.root)
	found, empty := t.remove(t.root, k)
	if empty {
		t.root = nil
	} else {
		for len(t.root.kids) == 1 {
			t.root = t.root.kids[0]
		}
	}
	return found
}

// remove deletes k from below n, which the tree owns, and reports whether
// it was there and whether that emptied n.
func (t *cowTree[K, V]) remove(n *cowNode[K, V], k K) (found, empty bool) {
	if n.kids == nil {
		i, found := t.search(n.keys[:n.n], k)
		if found {
			removeAt(n.keys[:], n.n, i)
			removeAt(n.vals[:], n.n, i)
			n.n--
			t.n--
		}
		return found, n.n == 0
	}
	i := t.child(n, k)
	kid := t.own(n.kids[i])
	n.kids[i] = kid
	if found, empty = t.remove(kid, k); !empty {
		return found, false
	}
	// Unlink the emptied kid with the separator on its left (its right for
	// the first kid): the remaining separators still bound their subtrees.
	n.kids = slices.Delete(n.kids, i, i+1)
	if n.n > 0 {
		removeAt(n.keys[:], n.n, max(i-1, 0))
		n.n--
	}
	return found, len(n.kids) == 0
}
