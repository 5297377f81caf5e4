package analysis

import (
	"sync"
	"sync/atomic"
)

// Concurrency-safe pruning state for the work-stealing parallel search.
//
// Both structures are striped by the fingerprint's high bits, one mutex per
// shard, mirroring vm.FPSet. What makes them different from their sequential
// counterparts (seenTable, deadMemo) is that every entry carries a WITNESS
// RANK — the DFS rank key (see parallel.go) of the node that recorded it —
// and a node may be pruned only against a witness of strictly smaller rank
// (and, for the seen set, of no greater depth). That rule is what keeps the
// parallel search's verdicts and diagnoses byte-identical to sequential:
// every pruned node then has a counterpart subtree that the canonical
// sequential order explores earlier and at least as deeply, so the winning
// accept (min rank) and the winning diagnosis node (max explained score,
// then min rank) are exactly the sequential ones. Under-pruning — a witness
// lost to a racing replace, a capped entry — only costs time, never changes
// output. DESIGN.md §15 gives the full argument.

const parShardBits = 6

// rankWitness is a recorded visit: who (rank) and how deep.
type rankWitness struct {
	rank  string
	depth int32
}

type seenShard struct {
	mu     sync.Mutex
	m      map[uint64]rankWitness // fast mode: by fingerprint hash
	mS     map[string]rankWitness // paranoid mode: by canonical string
	byHash map[uint64]string      // paranoid mode: collision detection
}

// sharedSeen is the parallel visited-state table.
type sharedSeen struct {
	paranoid   bool
	shards     [1 << parShardBits]seenShard
	collisions atomic.Int64
}

func newSharedSeen(paranoid bool) *sharedSeen {
	s := &sharedSeen{paranoid: paranoid}
	for i := range s.shards {
		sh := &s.shards[i]
		if paranoid {
			sh.mS = make(map[string]rankWitness)
			sh.byHash = make(map[uint64]string)
		} else {
			sh.m = make(map[uint64]rankWitness)
		}
	}
	return s
}

// visit reports whether the node (fingerprint h, DFS rank, depth) must be
// pruned: only when a recorded witness has strictly smaller rank and no
// greater depth. Otherwise the entry advances toward the minimum rank so
// later arrivals prune against the earliest-in-sequential-order visit; only
// then is the node's rank key built. canon is materialized outside the shard
// lock (paranoid mode only).
func (s *sharedSeen) visit(h uint64, rank *edgeRank, depth int, canon func() string) bool {
	d := int32(depth)
	sh := &s.shards[h>>(64-parShardBits)]
	if !s.paranoid {
		sh.mu.Lock()
		prev, ok := sh.m[h]
		// order compares the witness's rank with the node's; with no
		// witness it reads as "witness later", so the node records itself.
		order := 1
		if ok {
			order = rank.compare(prev.rank)
		}
		if order < 0 && prev.depth <= d {
			sh.mu.Unlock()
			return true
		}
		if order > 0 {
			sh.m[h] = rankWitness{rank: rank.key(), depth: d}
		}
		sh.mu.Unlock()
		return false
	}
	c := canon() // outside the lock
	collided := false
	sh.mu.Lock()
	if prevC, ok := sh.byHash[h]; ok {
		collided = prevC != c
	} else {
		sh.byHash[h] = c
	}
	prev, ok := sh.mS[c]
	order := 1
	if ok {
		order = rank.compare(prev.rank)
	}
	prune := order < 0 && prev.depth <= d
	if order > 0 {
		sh.mS[c] = rankWitness{rank: rank.key(), depth: d}
	}
	sh.mu.Unlock()
	if collided {
		s.collisions.Add(1)
	}
	return prune
}

// sharedMemo is the parallel dead-state memo: fingerprints of fully refuted
// subtrees, each carrying the minimum rank that proved it. A node consults
// the memo successfully only when the proof's rank is strictly smaller than
// its own. The byte budget is split evenly across shards, each rotating two
// generations exactly like the sequential deadMemo; insertion keeps the
// minimum prover rank so proofs only get more usable over time.
type sharedMemo struct {
	paranoid  bool
	budget    int64 // per shard
	shards    [1 << parShardBits]memoShard
	evictions atomic.Int64
}

type memoShard struct {
	mu         sync.Mutex
	cur, old   map[uint64]string // fp hash -> min prover rank
	curS, oldS map[string]string // canonical form -> min prover rank
	curCost    int64
}

func newSharedMemo(budget int64, paranoid bool) *sharedMemo {
	m := &sharedMemo{paranoid: paranoid, budget: budget / (1 << parShardBits)}
	if m.budget < 4*memoEntryCost {
		m.budget = 4 * memoEntryCost
	}
	for i := range m.shards {
		sh := &m.shards[i]
		if paranoid {
			sh.curS = make(map[string]string)
			sh.oldS = make(map[string]string)
		} else {
			sh.cur = make(map[uint64]string)
			sh.old = make(map[uint64]string)
		}
	}
	return m
}

// dead reports whether the node was proven non-accepting by a strictly
// smaller-rank subtree. Hits in the old generation are promoted. The node's
// rank is compared in place, never built. canon is materialized outside the
// shard lock (paranoid mode only).
func (m *sharedMemo) dead(h uint64, rank *edgeRank, canon func() string) bool {
	sh := &m.shards[h>>(64-parShardBits)]
	if !m.paranoid {
		sh.mu.Lock()
		prover, ok := sh.cur[h]
		if !ok {
			if prover, ok = sh.old[h]; ok {
				m.insertFastLocked(sh, h, prover) // promote hot entries
			}
		}
		sh.mu.Unlock()
		return ok && rank.compare(prover) < 0
	}
	c := canon()
	sh.mu.Lock()
	prover, ok := sh.curS[c]
	if !ok {
		if prover, ok = sh.oldS[c]; ok {
			m.insertParanoidLocked(sh, c, prover)
		}
	}
	sh.mu.Unlock()
	return ok && rank.compare(prover) < 0
}

// insert records a refuted subtree proven by the node with this rank.
func (m *sharedMemo) insert(h uint64, rank string, canon func() string) {
	sh := &m.shards[h>>(64-parShardBits)]
	if !m.paranoid {
		sh.mu.Lock()
		m.insertFastLocked(sh, h, rank)
		sh.mu.Unlock()
		return
	}
	c := canon()
	sh.mu.Lock()
	m.insertParanoidLocked(sh, c, rank)
	sh.mu.Unlock()
}

func (m *sharedMemo) insertFastLocked(sh *memoShard, h uint64, rank string) {
	if prev, ok := sh.cur[h]; ok {
		if rank < prev {
			sh.cur[h] = rank
		}
		return
	}
	if sh.curCost+memoEntryCost > m.budget/2 {
		m.evictions.Add(int64(len(sh.old)))
		sh.old = sh.cur
		sh.cur = make(map[uint64]string)
		sh.curCost = 0
	}
	sh.cur[h] = rank
	sh.curCost += memoEntryCost
}

func (m *sharedMemo) insertParanoidLocked(sh *memoShard, c, rank string) {
	if prev, ok := sh.curS[c]; ok {
		if rank < prev {
			sh.curS[c] = rank
		}
		return
	}
	cost := int64(memoEntryCost + len(c) + len(rank))
	if sh.curCost+cost > m.budget/2 {
		m.evictions.Add(int64(len(sh.oldS)))
		sh.oldS = sh.curS
		sh.curS = make(map[string]string)
		sh.curCost = 0
	}
	sh.curS[c] = rank
	sh.curCost += cost
}
