package dse

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"besst/internal/jsonl"
)

// PointHash is the canonical cross-campaign identity of one design
// point evaluation: the model-bundle hash (which machine, app, model
// method, sample count, and model seed produced the predictors), the
// point configuration, and the point's pre-drawn Monte Carlo seed.
// Everything that can change the mean makespan is folded into the key,
// so two campaigns that agree on a key would compute the identical
// mean — which is what makes memoized results safe to share across
// campaigns, tenants, and processes.
func PointHash(bundle string, epr, ranks int, scenario string, timesteps, mcRuns int, seed uint64) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("besst-point-v1|%s|epr=%d|ranks=%d|sc=%s|steps=%d|mc=%d|seed=%d",
		bundle, epr, ranks, scenario, timesteps, mcRuns, seed)))
	return hex.EncodeToString(h[:])
}

// memoRecord is one journal line: the point's content hash and its mean
// makespan. float64 JSON round-trips exactly (Go emits the shortest
// round-trippable decimal), so a journal-restored hit reproduces the
// original evaluation bit for bit.
type memoRecord struct {
	Key  string  `json:"key"`
	Mean float64 `json:"mean"`
}

// MemoStats is a point-memo counter snapshot (served by /v1/statz).
type MemoStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Journaled counts entries restored from the on-disk journal when
	// the memo was opened.
	Journaled int `json:"journaled,omitempty"`
}

// DefaultMemoCapacity bounds an unconfigured memo. A design-point entry
// is a hash and a float, so even the default retains far more points
// than a single campaign evaluates.
const DefaultMemoCapacity = 1 << 15

// Memo is the cross-campaign design-point result cache: an LRU map from
// PointHash keys to mean makespans, optionally backed by an append-only
// JSONL journal so warm results survive process restarts. One memo is
// shared by every execution path — besst-dse, besst-serve campaigns,
// and the dist ShardExecutor — so overlapping sweeps and repeated
// service requests never re-simulate a design point.
//
// Results are byte-identical whether the memo is cold or warm: a hit
// returns exactly the float64 the original evaluation produced, and the
// key includes the point's pre-drawn seed, so a hit can only ever stand
// in for the same deterministic computation.
type Memo struct {
	mu      sync.Mutex
	entries map[string]*list.Element // guarded by mu
	lru     *list.List               // front = most recent; guarded by mu
	journal *os.File                 // nil when in-memory only; guarded by mu
	hits    uint64                   // guarded by mu
	misses  uint64                   // guarded by mu
	evicted uint64                   // guarded by mu
	loaded  int                      // journal entries restored; guarded by mu

	capacity int // immutable after construction
}

type memoEntry struct {
	key  string
	mean float64
}

// NewMemo returns an in-memory point memo. capacity <= 0 selects
// DefaultMemoCapacity.
func NewMemo(capacity int) *Memo {
	if capacity <= 0 {
		capacity = DefaultMemoCapacity
	}
	m := &Memo{
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		capacity: capacity,
	}
	return m
}

// NewMemoJournal returns a point memo backed by an append-only JSONL
// journal at path. Existing entries are restored first — garbage lines
// are skipped and a torn tail is truncated away (jsonl), so the first
// new entry starts a whole line — and every new entry is appended.
func NewMemoJournal(capacity int, path string) (*Memo, error) {
	m := NewMemo(capacity)
	validLen, err := m.restore(path)
	if err != nil {
		return nil, err
	}
	f, err := jsonl.OpenAppend(path, validLen)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.journal = f
	m.mu.Unlock()
	return m, nil
}

// restore loads the journal at path into the memo, if it exists, and
// returns the length of its whole lines. Every whole line is
// independent, so an undecodable one is skipped, not the end of the
// journal. Duplicate keys keep the first-seen mean (later lines for a
// key can only be re-appends of the same deterministic value).
func (m *Memo) restore(path string) (validLen int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	validLen = jsonl.Lines(data, func(line []byte) bool {
		var rec memoRecord
		if err := json.Unmarshal(line, &rec); err == nil && rec.Key != "" {
			m.insert(rec.Key, rec.Mean)
		}
		return true // a garbage line is skipped
	})
	m.loaded = len(m.entries)
	return validLen, nil
}

// Lookup returns the memoized mean for key and refreshes its recency.
func (m *Memo) Lookup(key string) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		m.lru.MoveToFront(el)
		m.hits++
		return el.Value.(*memoEntry).mean, true
	}
	m.misses++
	return 0, false
}

// Store memoizes mean under key. Re-storing a present key only
// refreshes recency — the value cannot differ (the key hashes every
// input of the deterministic evaluation) and is never re-journaled.
func (m *Memo) Store(key string, mean float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		m.lru.MoveToFront(el)
		return
	}
	m.insert(key, mean)
	if m.journal == nil {
		return
	}
	line, err := json.Marshal(memoRecord{Key: key, Mean: mean})
	if err == nil {
		_, err = m.journal.Write(append(line, '\n'))
	}
	if err != nil {
		// A failed append degrades persistence, not correctness: drop
		// the journal and keep serving from memory.
		_ = m.journal.Close()
		m.journal = nil
	}
}

// insert adds key as the most recent entry unless it is present (the
// first-seen mean wins) and evicts the least recent past capacity. The
// caller holds m.mu.
//
//lint:ignore lockguard the caller-holds-mu contract is stated above; Store and restore lock first
func (m *Memo) insert(key string, mean float64) {
	if _, ok := m.entries[key]; ok {
		return
	}
	m.entries[key] = m.lru.PushFront(&memoEntry{key: key, mean: mean})
	for len(m.entries) > m.capacity {
		oldest := m.lru.Back()
		m.lru.Remove(oldest)
		delete(m.entries, oldest.Value.(*memoEntry).key)
		m.evicted++
	}
}

// Stats snapshots the counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{
		Entries:   len(m.entries),
		Capacity:  m.capacity,
		Hits:      m.hits,
		Misses:    m.misses,
		Evictions: m.evicted,
		Journaled: m.loaded,
	}
}

// Close closes the journal, if any. The memo stays usable in-memory.
func (m *Memo) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal == nil {
		return nil
	}
	err := m.journal.Close()
	m.journal = nil
	return err
}
