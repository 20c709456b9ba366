package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// modelTree pairs a tree with the model it must equal: a map and its keys
// in order.
type modelTree struct {
	tree  cowTree[int, int]
	model map[int]int
	keys  []int
}

func (m *modelTree) set(k, v int) {
	m.tree.set(k, v)
	if _, had := m.model[k]; !had {
		i, _ := slices.BinarySearch(m.keys, k)
		m.keys = slices.Insert(m.keys, i, k)
	}
	m.model[k] = v
}

// delete reports whether tree and model agree that k was (not) there.
func (m *modelTree) delete(k int) bool {
	_, had := m.model[k]
	if had {
		i, _ := slices.BinarySearch(m.keys, k)
		m.keys = slices.Delete(m.keys, i, i+1)
		delete(m.model, k)
	}
	return m.tree.delete(k) == had
}

func (m *modelTree) clone() *modelTree {
	c := &modelTree{tree: m.tree.clone(new(byte), new(byte)), model: make(map[int]int, len(m.model)), keys: slices.Clone(m.keys)}
	for k, v := range m.model {
		c.model[k] = v
	}
	return c
}

// check compares the whole tree — length, order, every value — to the model.
func (m *modelTree) check() error {
	if m.tree.len() != len(m.keys) {
		return fmt.Errorf("len %d, model has %d", m.tree.len(), len(m.keys))
	}
	return m.checkFrom(nil, m.keys, len(m.keys))
}

// checkFrom walks the tree from *from (the start when nil) for at most limit
// entries and requires exactly want[:limit] with the model's values.
func (m *modelTree) checkFrom(from *int, want []int, limit int) (err error) {
	limit = min(limit, len(want))
	i := 0
	m.tree.ascend(from, func(k, v int) bool {
		if i == limit {
			return false
		}
		if k != want[i] || v != m.model[k] {
			err = fmt.Errorf("entry %d is (%d, %d), want (%d, %d)", i, k, v, want[i], m.model[want[i]])
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

// runTreeScript interprets script as set / delete / clone / switch / ranged
// ascend / get operations, three bytes each (op, key high, key low), against
// up to 16 trees that are all clones of one another, each checked against
// its own model as it goes — and every one of them again at the end, after
// all the writes to the others: a clone that changed is the bug this
// structure can have.
func runTreeScript(script []byte) error {
	cur := &modelTree{model: map[int]int{}}
	cur.tree.search = slices.BinarySearch[[]int]
	trees := []*modelTree{cur}
	for pc := 0; pc+2 < len(script); pc += 3 {
		op, k := script[pc], int(script[pc+1])<<8|int(script[pc+2])
		switch op % 8 {
		case 0, 1, 2: // set; the value says which write it was
			cur.set(k, pc)
		case 3:
			if !cur.delete(k) {
				return fmt.Errorf("op %d: delete(%d) misreported whether the key was there", pc/3, k)
			}
		case 4:
			c := cur.clone()
			if len(trees) < 16 {
				trees = append(trees, c)
			} else {
				trees[k%16] = c
			}
		case 5:
			cur = trees[k%len(trees)]
		case 6:
			i, _ := slices.BinarySearch(cur.keys, k)
			if err := cur.checkFrom(&k, cur.keys[i:], 40); err != nil {
				return fmt.Errorf("op %d: ascend from %d: %v", pc/3, k, err)
			}
		case 7:
			v, ok := cur.tree.get(k)
			if mv, mok := cur.model[k]; ok != mok || v != mv {
				return fmt.Errorf("op %d: get(%d) = (%d, %v), want (%d, %v)", pc/3, k, v, ok, mv, mok)
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
	return scripts
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
	owner := &modelTree{model: map[int]int{}}
	owner.tree.search = slices.BinarySearch[[]int]
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
