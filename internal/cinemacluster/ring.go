// Package cinemacluster scales the Cinema serving tier out: a
// consistent-hash ring that assigns every frame of every store to R
// owning nodes, and a gateway that routes browsing traffic across the
// ring with replica failover and a memory tier. One cinemaserve process
// was the ceiling before this package; behind a gateway, N nodes split
// the cache working set (each frame hot on its R owners, not on
// everyone), a dead node costs its share of cache warmth rather than
// availability, and the fleet grows by adding peers.
//
// The cluster contracts:
//
//   - Deterministic placement. A frame's owners are a pure function of
//     (store, key) and the member list — any gateway, any process, any
//     restart computes the same owners, so peer caches stay coherent
//     without coordination.
//
//   - Bounded movement. Membership changes remap only the keys adjacent
//     to the changed node's ring points: joining or leaving an N-node
//     ring moves O(1/N) of the keyspace, not all of it.
//
//   - Breaker-driven ejection. Node health is the same circuit breaker
//     the server uses per store: consecutive fetch failures open it, an
//     open breaker takes the node out of routing, and after the cooldown
//     a single live request probes it half-open. No separate health
//     checker, no pings — the traffic itself is the health signal.
//
//   - Tiered reads, one round trip per miss. A request is answered from
//     the gateway's own memory, else by one read on the first healthy
//     owner, which answers from its memory before it touches disk. Both
//     memories admit a new frame only if it is requested more often
//     than what it would evict, so Zipf-like traffic keeps its hot
//     frames in RAM. Only a client's own cacheonly request probes the
//     owners' memory, and it never reads disk.
//
// Storage is shared (the nodes mount the same database directories, the
// Lustre posture of the paper), so ownership concentrates cache locality
// without partitioning durability: any healthy node can serve any frame,
// which is what makes last-resort failover safe.
package cinemacluster

import (
	"sort"
	"strconv"
	"sync"

	"insituviz/internal/cinemastore"
	"insituviz/internal/faults"
)

// DefaultVirtualNodes is the ring points each member contributes. 128
// keeps the per-node keyspace share within a few percent of uniform and
// the movement bound comfortably under 2/N while the sorted point slice
// stays small enough to rebuild on every membership change.
const DefaultVirtualNodes = 128

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node int32 // index into members
}

// Ring is a consistent-hash ring over named nodes. Placement is a pure
// function of the member set and the key — no clock, no randomness —
// so every gateway in a fleet computes identical owners. Safe for
// concurrent use; Owners on a stable ring allocates nothing beyond the
// caller's destination slice.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	members []string // index-stable within one build; sorted at rebuild
	points  []point  // sorted by hash
}

// NewRing returns an empty ring with the given virtual-node count per
// member (<= 0 selects DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes}
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.members {
		if m == node {
			return
		}
	}
	r.members = append(r.members, node)
	r.rebuild()
}

// rebuild recomputes the sorted point slice. Members are kept sorted so
// the member → index mapping (and with it every placement) depends only
// on the set, not on insertion order. Called with r.mu held.
func (r *Ring) rebuild() {
	sort.Strings(r.members)
	r.points = r.points[:0]
	var buf []byte
	for idx, m := range r.members {
		for v := 0; v < r.vnodes; v++ {
			buf = buf[:0]
			buf = append(buf, m...)
			buf = append(buf, '#')
			buf = strconv.AppendInt(buf, int64(v), 10)
			r.points = append(r.points, point{hash: hashBytes(buf), node: int32(idx)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A hash collision between two members' points would otherwise
		// leave placement dependent on sort stability; break the tie on
		// the member index, which is itself deterministic.
		return r.points[i].node < r.points[j].node
	})
}

// Nodes returns the members, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.members...)
}

// Owners appends the distinct members owning hash, walking clockwise
// from the first ring point at or after it, until n members (or the
// whole ring) are collected, and returns the extended slice. The first
// owner is the primary; the rest are the replica set in deterministic
// failover order.
func (r *Ring) Owners(hash uint64, n int, dst []string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return dst
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	base := len(dst)
	for i := 0; i < len(r.points) && len(dst)-base < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		name := r.members[p.node]
		dup := false
		for _, picked := range dst[base:] {
			if picked == name {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, name)
		}
	}
	return dst
}

// HashKey maps one frame tuple — (store, variable, time, phi, theta) —
// onto the ring's keyspace via the key's canonical byte rendering, so
// every gateway hashes a request identically.
func HashKey(store string, key cinemastore.Key) uint64 {
	buf := make([]byte, 0, 64)
	buf = append(buf, store...)
	buf = append(buf, '/')
	buf = key.AppendCanonical(buf)
	return hashBytes(buf)
}

// HashFile maps a (store, file) address onto the keyspace, for clients
// that fetch frames by stored file name.
func HashFile(store, file string) uint64 {
	buf := make([]byte, 0, 64)
	buf = append(buf, store...)
	buf = append(buf, '/')
	buf = append(buf, file...)
	return hashBytes(buf)
}

// hashBytes is FNV-1a passed through the splitmix64 finalizer. FNV alone
// leaves the high bits of short, similar inputs (vnode labels differ by
// a digit or two) correlated enough to skew ring shares past 2x fair;
// the avalanche step spreads them.
func hashBytes(b []byte) uint64 {
	return faults.Mix64(faults.FNV64a(b))
}
