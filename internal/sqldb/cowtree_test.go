package sqldb

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// treeKeys is a key type a script runs over: how a script's 16-bit key
// becomes a tree key, the tree's order on them and the tree's functions.
type treeKeys[K comparable] struct {
	of     func(k int) K
	cmp    func(a, b K) int
	search func(keys []K, k K) (int, bool)
	run    func(a, b K) bool
}

// intKeys are the rows trees' kind of key: the script's own, no runs.
var intKeys = treeKeys[int]{
	of:     func(k int) int { return k },
	cmp:    func(a, b int) int { return a - b },
	search: slices.BinarySearch[[]int],
}

// entryKeys are index entries under the run rule: 16 words (spread over the
// word space as hashes are), rowid-major, so a script's ascending fill posts
// rows in rowid order — every insert after the first sixteen extending its
// word's run, the path the run split takes — and its runs are n/16 entries
// long.
var entryKeys = treeKeys[ixEntry]{
	of: func(k int) ixEntry { return ixEntry{w: uint64(k%16) * 0x9e3779b97f4a7c15, id: int64(k / 16)} },
	cmp: func(a, b ixEntry) int {
		if a.w != b.w {
			return cmp.Compare(a.w, b.w)
		}
		return cmp.Compare(a.id, b.id)
	},
	search: searchEntries,
	run:    sameWord,
}

// modelTree pairs a tree with the model it must equal: a map and its keys
// in order.
type modelTree[K comparable] struct {
	kind  *treeKeys[K]
	tree  cowTree[K, int]
	model map[K]int
	keys  []K
}

func newModelTree[K comparable](kind *treeKeys[K]) *modelTree[K] {
	m := &modelTree[K]{kind: kind, model: map[K]int{}}
	m.tree.search, m.tree.run = kind.search, kind.run
	return m
}

func (m *modelTree[K]) set(k K, v int) {
	m.tree.set(k, v)
	if _, had := m.model[k]; !had {
		i, _ := slices.BinarySearchFunc(m.keys, k, m.kind.cmp)
		m.keys = slices.Insert(m.keys, i, k)
	}
	m.model[k] = v
}

// delete reports whether tree and model agree that k was (not) there.
func (m *modelTree[K]) delete(k K) bool {
	_, had := m.model[k]
	if had {
		i, _ := slices.BinarySearchFunc(m.keys, k, m.kind.cmp)
		m.keys = slices.Delete(m.keys, i, i+1)
		delete(m.model, k)
	}
	return m.tree.delete(k) == had
}

func (m *modelTree[K]) clone() *modelTree[K] {
	return &modelTree[K]{kind: m.kind, tree: m.tree.clone(new(byte), new(byte)), model: maps.Clone(m.model), keys: slices.Clone(m.keys)}
}

// check compares the whole tree — length, order, every value — to the model.
func (m *modelTree[K]) check() error {
	if m.tree.len() != len(m.keys) {
		return fmt.Errorf("len %d, model has %d", m.tree.len(), len(m.keys))
	}
	return m.checkFrom(nil, m.keys, len(m.keys))
}

// checkFrom walks the tree from *from (the start when nil) for at most limit
// entries and requires exactly want[:limit] with the model's values.
func (m *modelTree[K]) checkFrom(from *K, want []K, limit int) (err error) {
	limit = min(limit, len(want))
	i := 0
	m.tree.ascend(from, func(k K, v int) bool {
		if i == limit {
			return false
		}
		if k != want[i] || v != m.model[k] {
			err = fmt.Errorf("entry %d is (%v, %d), want (%v, %d)", i, k, v, want[i], m.model[want[i]])
			return false
		}
		i++
		return true
	})
	if err == nil && i != limit {
		err = fmt.Errorf("walk ended after %d entries, want %d", i, limit)
	}
	return err
}

// runTreeScript runs script over both key types (runScript).
func runTreeScript(script []byte) error {
	if err := runScript(&intKeys, script); err != nil {
		return fmt.Errorf("rowid keys: %v", err)
	}
	if err := runScript(&entryKeys, script); err != nil {
		return fmt.Errorf("index entries: %v", err)
	}
	return nil
}

// runScript interprets script as set / delete / clone / switch / ranged
// ascend / get operations, three bytes each (op, key high, key low), against
// up to 16 trees that are all clones of one another, each checked against
// its own model as it goes — and every one of them again at the end, after
// all the writes to the others: a clone that changed is the bug this
// structure can have.
func runScript[K comparable](kind *treeKeys[K], script []byte) error {
	cur := newModelTree(kind)
	trees := []*modelTree[K]{cur}
	for pc := 0; pc+2 < len(script); pc += 3 {
		op, n := script[pc], int(script[pc+1])<<8|int(script[pc+2])
		k := kind.of(n)
		switch op % 8 {
		case 0, 1, 2: // set; the value says which write it was
			cur.set(k, pc)
		case 3:
			if !cur.delete(k) {
				return fmt.Errorf("op %d: delete(%v) misreported whether the key was there", pc/3, k)
			}
		case 4:
			c := cur.clone()
			if len(trees) < 16 {
				trees = append(trees, c)
			} else {
				trees[n%16] = c
			}
		case 5:
			cur = trees[n%len(trees)]
		case 6:
			i, _ := slices.BinarySearchFunc(cur.keys, k, kind.cmp)
			if err := cur.checkFrom(&k, cur.keys[i:], 40); err != nil {
				return fmt.Errorf("op %d: ascend from %v: %v", pc/3, k, err)
			}
		case 7:
			v, ok := cur.tree.get(k)
			if mv, mok := cur.model[k]; ok != mok || v != mv {
				return fmt.Errorf("op %d: get(%v) = (%d, %v), want (%d, %v)", pc/3, k, v, ok, mv, mok)
			}
		}
	}
	for i, m := range trees {
		if err := m.check(); err != nil {
			return fmt.Errorf("tree %d after the whole script: %v", i, err)
		}
	}
	return nil
}

// treeSeedScripts are the in-code seeds FuzzCowTree and TestCowTreeModel
// share: an ascending fill of n keys (the packed-split path) emptied from
// the front, the same fill emptied from the back, and seeded random mixes of
// 3n operations over a narrow key space (replacements, misses) and a wide
// one. The model test runs them at a size that builds three levels; the
// fuzzer mutates short ones, which it can run by the thousand.
func treeSeedScripts(n int) [][]byte {
	var up, down []byte
	for k := 0; k < n; k++ {
		up = append(up, 0, byte(k>>8), byte(k))
		if k%500 == 0 {
			up = append(up, 4, 0, byte(k/500))
		}
	}
	down = append(down, up...)
	for k := 0; k < n; k++ {
		up = append(up, 3, byte(k>>8), byte(k))
		down = append(down, 3, byte((n-1-k)>>8), byte(n-1-k))
		if k%700 == 0 {
			up = append(up, 4, 0, 9, 6, 0, byte(k))
			down = append(down, 5, 0, byte(k), 7, 1, 0)
		}
	}
	scripts := [][]byte{up, down, {0, 0, 1, 4, 0, 0, 3, 0, 1}, {}}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := make([]byte, 3*3*n)
		rng.Read(s)
		if seed%2 == 0 {
			for i := 1; i < len(s); i += 3 {
				s[i] &= 0x03 // keys below 1024: collisions, deletes that hit
			}
		}
		scripts = append(scripts, s)
	}
	// A table that grows while it is read and trimmed: rows posted in rowid
	// order (runs n/16 long under entryKeys), an old row deleted after every
	// third, a clone taken and written past now and then.
	var grow []byte
	rng := rand.New(rand.NewSource(27))
	for k := 0; k < n; k++ {
		grow = append(grow, 0, byte(k>>8), byte(k))
		if old := rng.Intn(k + 1); k%3 == 0 {
			grow = append(grow, 3, byte(old>>8), byte(old))
		}
		if k%250 == 0 {
			grow = append(grow, 4, 0, byte(k/250), 6, byte(k>>8), byte(k&^15))
		}
	}
	return append(scripts, grow)
}

func TestCowTreeModel(t *testing.T) {
	for i, s := range treeSeedScripts(3000) {
		if err := runTreeScript(s); err != nil {
			t.Errorf("seed script %d: %v", i, err)
		}
	}
}

func FuzzCowTree(f *testing.F) {
	for _, s := range treeSeedScripts(100) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := runTreeScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCowTreeReadersRaceOwner: readers walk clones while the owner keeps
// writing the tree they were cloned from (run with -race). A node written in
// place after a clone shared it is a data race here and a wrong walk in
// TestCowTreeModel.
func TestCowTreeReadersRaceOwner(t *testing.T) {
	owner := newModelTree(&intKeys)
	rng := rand.New(rand.NewSource(7))
	var wg sync.WaitGroup
	for round := 0; round < 40; round++ {
		for i := 0; i < 400; i++ {
			if k := rng.Intn(4000); rng.Intn(4) == 0 {
				owner.delete(k)
			} else {
				owner.set(k, round)
			}
		}
		c := owner.clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if err := c.check(); err != nil {
					t.Errorf("clone of round %d: %v", round, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
