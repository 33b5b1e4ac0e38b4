package cinemacluster

import (
	"fmt"
	"math/rand"
	"testing"

	"insituviz/internal/cinemastore"
)

// Remove deletes a member; removing an unknown member is a no-op. The
// gateway never shrinks its ring, so only the movement tests need it.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, m := range r.members {
		if m == node {
			r.members = append(r.members[:i], r.members[i+1:]...)
			r.rebuild()
			return
		}
	}
}

func ringWith(vnodes int, nodes ...string) *Ring {
	r := NewRing(vnodes)
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

func testKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(42))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return keys
}

// TestRingDeterministicPlacement pins the cluster's core contract: the
// owners of a key depend only on the member set — not insertion order,
// not ring history — at every fleet size.
func TestRingDeterministicPlacement(t *testing.T) {
	keys := testKeys(2000)
	for size := 1; size <= 6; size++ {
		var nodes []string
		for i := 0; i < size; i++ {
			nodes = append(nodes, fmt.Sprintf("node%d", i))
		}
		a := ringWith(0, nodes...)
		// Same set, reversed insertion order, plus a member that joins
		// and leaves again.
		b := NewRing(0)
		b.Add("transient")
		for i := len(nodes) - 1; i >= 0; i-- {
			b.Add(nodes[i])
		}
		b.Remove("transient")
		for _, k := range keys {
			ao := a.Owners(k, 2, nil)
			bo := b.Owners(k, 2, nil)
			if len(ao) != len(bo) {
				t.Fatalf("size %d key %x: owner counts %d vs %d", size, k, len(ao), len(bo))
			}
			for i := range ao {
				if ao[i] != bo[i] {
					t.Fatalf("size %d key %x: owners %v vs %v", size, k, ao, bo)
				}
			}
		}
	}
}

func TestRingOwnersDistinctAndClamped(t *testing.T) {
	r := ringWith(0, "a", "b", "c")
	for _, k := range testKeys(500) {
		owners := r.Owners(k, 5, nil)
		if len(owners) != 3 {
			t.Fatalf("key %x: %d owners, want all 3", k, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %x: duplicate owner %s in %v", k, o, owners)
			}
			seen[o] = true
		}
	}
	if got := r.Owners(1, 0, nil); len(got) != 0 {
		t.Errorf("Owners(n=0) = %v", got)
	}
	if got := NewRing(0).Owners(1, 2, nil); len(got) != 0 {
		t.Errorf("empty ring owners = %v", got)
	}
}

// TestRingBoundedMovement holds the consistent-hashing promise the
// package documents: joining or leaving an N-node ring remaps fewer than
// 2/N of the keys, and keys that do move on a leave only ever move away
// from the leaver.
func TestRingBoundedMovement(t *testing.T) {
	keys := testKeys(20000)
	for _, n := range []int{3, 5, 8} {
		var nodes []string
		for i := 0; i < n; i++ {
			nodes = append(nodes, fmt.Sprintf("node%d", i))
		}
		r := ringWith(0, nodes...)
		before := make([]string, len(keys))
		for i, k := range keys {
			before[i] = r.Owners(k, 1, nil)[0]
		}

		// Join: fewer than 2/(n+1) of keys may change primary.
		r.Add("joiner")
		moved := 0
		for i, k := range keys {
			after := r.Owners(k, 1, nil)[0]
			if after != before[i] {
				moved++
				if after != "joiner" {
					t.Fatalf("n=%d join: key %x moved %s -> %s, not to the joiner",
						n, k, before[i], after)
				}
			}
		}
		if bound := 2 * len(keys) / (n + 1); moved >= bound {
			t.Errorf("n=%d join moved %d/%d keys, bound %d", n, moved, len(keys), bound)
		}

		// Leave: back to the original ring; only the joiner's keys move.
		r.Remove("joiner")
		moved = 0
		for i, k := range keys {
			after := r.Owners(k, 1, nil)[0]
			if after != before[i] {
				t.Fatalf("n=%d leave: key %x settled on %s, originally %s — leave must restore placement",
					n, k, after, before[i])
			}
			_ = moved
		}
	}
}

// TestRingBalance pins the vnode count's load spread: with the default
// 128 points per member, no member's primary share exceeds twice the
// fair share. Deterministic (fixed hash, fixed keys), so the bound
// cannot flake.
func TestRingBalance(t *testing.T) {
	keys := testKeys(50000)
	r := ringWith(0, "node0", "node1", "node2", "node3", "node4")
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.Owners(k, 1, nil)[0]]++
	}
	fair := len(keys) / 5
	for node, c := range counts {
		if c > 2*fair || c < fair/2 {
			t.Errorf("node %s owns %d keys, fair share %d (spread too wide)", node, c, fair)
		}
	}
}

// TestHashKeyDeterminism pins that the frame-tuple hash distinguishes
// every axis and the store, and never varies between calls.
func TestHashKeyDeterminism(t *testing.T) {
	base := cinemastore.Key{Time: 1.5, Phi: 0.25, Theta: -0.5, Variable: "vorticity"}
	h := HashKey("run", base)
	if h != HashKey("run", base) {
		t.Fatal("HashKey is not stable")
	}
	variants := []cinemastore.Key{
		{Time: 1.5000001, Phi: 0.25, Theta: -0.5, Variable: "vorticity"},
		{Time: 1.5, Phi: 0.2500001, Theta: -0.5, Variable: "vorticity"},
		{Time: 1.5, Phi: 0.25, Theta: -0.5000001, Variable: "vorticity"},
		{Time: 1.5, Phi: 0.25, Theta: -0.5, Variable: "okubo"},
	}
	for _, v := range variants {
		if HashKey("run", v) == h {
			t.Errorf("key %+v hashes like %+v", v, base)
		}
	}
	if HashKey("other", base) == h {
		t.Error("store name does not participate in the hash")
	}
	if HashFile("run", "a.png") == HashFile("run", "b.png") {
		t.Error("file names do not participate in HashFile")
	}
}
