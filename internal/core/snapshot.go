package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pfuzzer/internal/subject"
)

// countedSource wraps the standard PRNG source and counts draws, so a
// Snapshot can record the stream position and Restore can fast-forward
// a fresh source to it. It deliberately does not implement
// rand.Source64: rand.Rand then derives every value (Intn, Float64,
// even Uint64) from Int63 alone, so one counter replays the stream
// exactly — and since the campaign only ever consumes Int63-derived
// values, wrapping changes nothing about the emitted numbers, keeping
// the golden sequences intact.
type countedSource struct {
	src   rand.Source
	draws uint64
}

func (c *countedSource) Int63() int64 { c.draws++; return c.src.Int63() }
func (c *countedSource) Seed(s int64) { c.src.Seed(s) }

// snapshotVersion guards the serialized layout; Restore rejects
// snapshots written by a different version. Keys an older build wrote
// and this one no longer reads (the speculative engine's workers,
// batch_size, spec_depth, shards, generation and phases, and each
// candidate's shard) are ignored by the decoder, which is why their
// removal needed no version bump (TestRestoreIgnoresRetiredKeys).
const snapshotVersion = 1

// SavedConfig is the serializable subset of Config a Snapshot carries,
// so resuming a campaign needs no re-specification of its knobs. The
// function-valued fields (Events, MineLexer) cannot be serialized and
// are re-supplied by Restore's cfg argument.
type SavedConfig struct {
	Seed          int64    `json:"seed"`
	MaxExecs      int      `json:"max_execs"`
	MaxValids     int      `json:"max_valids,omitempty"`
	MaxLen        int      `json:"max_len"`
	MaxQueue      int      `json:"max_queue"`
	Charset       []byte   `json:"charset"`
	DeadlineNS    int64    `json:"deadline_ns,omitempty"`
	Cache         int      `json:"cache,omitempty"`
	MinePhase     bool     `json:"mine_phase,omitempty"`
	MineBudget    int      `json:"mine_budget,omitempty"`
	MineMaxTokens int      `json:"mine_max_tokens,omitempty"`
	MineCadence   int      `json:"mine_cadence,omitempty"`
	MineSeeds     [][]byte `json:"mine_seeds,omitempty"`

	NoLengthTerm       bool `json:"no_length_term,omitempty"`
	NoReplacementBonus bool `json:"no_replacement_bonus,omitempty"`
	NoStackTerm        bool `json:"no_stack_term,omitempty"`
	NoParentsTerm      bool `json:"no_parents_term,omitempty"`
	NoPathNovelty      bool `json:"no_path_novelty,omitempty"`
	CoverageOnly       bool `json:"coverage_only,omitempty"`
	BFS                bool `json:"bfs,omitempty"`
}

func savedConfig(c *Config) SavedConfig {
	return SavedConfig{
		Seed: c.Seed, MaxExecs: c.MaxExecs, MaxValids: c.MaxValids,
		MaxLen: c.MaxLen, MaxQueue: c.MaxQueue, Charset: c.Charset,
		DeadlineNS: int64(c.Deadline), Cache: int(c.Cache),
		MinePhase: c.MinePhase, MineBudget: c.MineBudget,
		MineMaxTokens: c.MineMaxTokens, MineCadence: c.MineCadence, MineSeeds: c.MineSeeds,
		NoLengthTerm: c.NoLengthTerm, NoReplacementBonus: c.NoReplacementBonus,
		NoStackTerm: c.NoStackTerm, NoParentsTerm: c.NoParentsTerm,
		NoPathNovelty: c.NoPathNovelty, CoverageOnly: c.CoverageOnly, BFS: c.BFS,
	}
}

func (sc *SavedConfig) config() Config {
	return Config{
		Seed: sc.Seed, MaxExecs: sc.MaxExecs, MaxValids: sc.MaxValids,
		MaxLen: sc.MaxLen, MaxQueue: sc.MaxQueue, Charset: sc.Charset,
		Deadline: time.Duration(sc.DeadlineNS), Cache: CacheMode(sc.Cache),
		MinePhase: sc.MinePhase, MineBudget: sc.MineBudget,
		MineMaxTokens: sc.MineMaxTokens, MineCadence: sc.MineCadence, MineSeeds: sc.MineSeeds,
		NoLengthTerm: sc.NoLengthTerm, NoReplacementBonus: sc.NoReplacementBonus,
		NoStackTerm: sc.NoStackTerm, NoParentsTerm: sc.NoParentsTerm,
		NoPathNovelty: sc.NoPathNovelty, CoverageOnly: sc.CoverageOnly, BFS: sc.BFS,
	}
}

// SnapValid is one emitted valid input in a Snapshot.
type SnapValid struct {
	Input     []byte `json:"input"`
	NewBlocks int    `json:"new_blocks"`
	Exec      int    `json:"exec"`
}

// SnapCandidate is one queued (or popped) search candidate in a
// Snapshot.
type SnapCandidate struct {
	Input       []byte   `json:"input"`
	Replacement []byte   `json:"replacement,omitempty"`
	ParentBlks  []uint32 `json:"parent_blks,omitempty"`
	ParentStack float64  `json:"parent_stack,omitempty"`
	ParentPath  uint64   `json:"parent_path,omitempty"`
	Parents     int      `json:"parents,omitempty"`
	Retries     int      `json:"retries,omitempty"`
	MineGen     int      `json:"mine_gen,omitempty"`
	Score       float64  `json:"score"`
}

func snapCandidate(cd *candidate, score float64) SnapCandidate {
	sc := SnapCandidate{
		Input: cd.input, Replacement: cd.replacement,
		Parents: cd.parents, Retries: cd.retries, MineGen: cd.mineGen,
		Score: score,
	}
	if cd.parent != nil {
		sc.ParentBlks = cd.parent.blks
		sc.ParentStack = cd.parent.stack
		sc.ParentPath = cd.parent.path
	}
	return sc
}

func (sc *SnapCandidate) candidate() *candidate {
	cd := &candidate{
		input: sc.Input, replacement: sc.Replacement,
		parents: sc.Parents, retries: sc.Retries, mineGen: sc.MineGen,
	}
	if len(sc.ParentBlks) > 0 || sc.ParentStack != 0 || sc.ParentPath != 0 {
		// The snapshot flattens the shared parentFacts per candidate;
		// rebuilding them unshared only forfeits memo reuse across
		// former siblings, never a score value.
		cd.parent = &parentFacts{blks: sc.ParentBlks, stack: sc.ParentStack, path: sc.ParentPath}
	}
	return cd
}

// PathCount is one path-frequency entry in a Snapshot.
type PathCount struct {
	Hash  uint64 `json:"hash"`
	Count int    `json:"count"`
}

// SnapHybrid is the hybrid phase driver's between-phase state. The
// grammar itself is not serialized: Restore rebuilds it by replaying
// MineSeeds and the first Fed valids through the incremental miner,
// which reproduces the automaton exactly.
type SnapHybrid struct {
	Fed         int      `json:"fed"`
	ExploreLeft int      `json:"explore_left"`
	MineLeft    int      `json:"mine_left"`
	SliceLeft   int      `json:"slice_left"`
	Stage       int      `json:"stage"`
	PhaseActive bool     `json:"phase_active"`
	PhaseCap    int      `json:"phase_cap"`
	PhaseMining bool     `json:"phase_mining"`
	PhaseKind   int      `json:"phase_kind"`
	PhaseRound  int      `json:"phase_round"`
	Emitted     [][]byte `json:"emitted,omitempty"` // GenerateBatch's hand-out dedup set
}

// Snapshot is a serializable image of a campaign between Steps, and
// it is exact: a campaign restored from a snapshot continues with the
// same queue, dedup sets, cursor and RNG stream position, so the
// combined run is bit-identical to an uninterrupted one.
type Snapshot struct {
	Version int         `json:"version"`
	Config  SavedConfig `json:"config"`

	Execs         int         `json:"execs"`
	CacheHits     int         `json:"cache_hits,omitempty"`
	CacheMisses   int         `json:"cache_misses,omitempty"`
	CacheRetired  bool        `json:"cache_retired,omitempty"`
	CacheCheckAt  int         `json:"cache_check_at,omitempty"`
	ElapsedNS     int64       `json:"elapsed_ns"`
	ExecElapsedNS int64       `json:"exec_elapsed_ns,omitempty"`
	RNGDraws      uint64      `json:"rng_draws"`
	Began         bool        `json:"began"`
	LongestValid  int         `json:"longest_valid,omitempty"`
	MiningActive  bool        `json:"mining_active,omitempty"`
	Valids        []SnapValid `json:"valids,omitempty"`
	Coverage      []uint32    `json:"coverage,omitempty"`
	VBr           []uint32    `json:"vbr,omitempty"`
	Seen          [][]byte    `json:"seen,omitempty"`
	PathSeen      []PathCount `json:"path_seen,omitempty"`

	Queue []SnapCandidate `json:"queue,omitempty"`

	// The engine's loop cursor.
	SStarted   bool           `json:"s_started"`
	SInput     []byte         `json:"s_input,omitempty"`
	SExt       []byte         `json:"s_ext,omitempty"`
	SCur       *SnapCandidate `json:"s_cur,omitempty"`
	CurParents int            `json:"cur_parents,omitempty"`
	CurMineGen int            `json:"cur_mine_gen,omitempty"`

	Hybrid *SnapHybrid `json:"hybrid,omitempty"`
}

// Marshal encodes the snapshot for persistence (see internal/corpus).
func (s *Snapshot) Marshal() ([]byte, error) { return json.Marshal(s) }

// UnmarshalSnapshot decodes a snapshot written by Marshal.
func UnmarshalSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return &s, nil
}

func sortedIDs(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot captures the campaign's full state. It must only be called
// between Steps (never concurrently with one). Map-backed sets are emitted sorted so snapshot bytes are stable.
func (c *Campaign) Snapshot() *Snapshot {
	f := c.f
	s := &Snapshot{
		Version:       snapshotVersion,
		Config:        savedConfig(&f.cfg),
		Execs:         f.res.Execs,
		CacheHits:     f.res.CacheHits,
		CacheMisses:   f.res.CacheMisses,
		CacheRetired:  f.res.CacheRetired,
		CacheCheckAt:  f.cacheCheckAt,
		ExecElapsedNS: int64(f.res.ExecElapsed),
		ElapsedNS:     int64(f.clock.Active()),
		RNGDraws:      f.cs.draws,
		Began:         f.began,
		LongestValid:  f.longestValid,
		MiningActive:  f.miningActive,
		SStarted:      f.sStarted,
		SInput:        append([]byte(nil), f.sInput...),
		SExt:          append([]byte(nil), f.sExt...),
		CurParents:    f.curParents,
		CurMineGen:    f.curMineGen,
	}
	for i := range f.res.Valids {
		v := &f.res.Valids[i]
		s.Valids = append(s.Valids, SnapValid{Input: v.Input, NewBlocks: v.NewBlocks, Exec: v.Exec})
	}
	if f.res.Coverage != nil {
		s.Coverage = sortedIDs(f.res.Coverage)
	}
	s.VBr = f.vBr.ids()
	sort.Slice(s.VBr, func(i, j int) bool { return s.VBr[i] < s.VBr[j] })
	for k := range f.seen {
		s.Seen = append(s.Seen, []byte(k))
	}
	sort.Slice(s.Seen, func(i, j int) bool { return bytes.Compare(s.Seen[i], s.Seen[j]) < 0 })
	for h, n := range f.pathSeen {
		s.PathSeen = append(s.PathSeen, PathCount{Hash: h, Count: *n})
	}
	sort.Slice(s.PathSeen, func(i, j int) bool { return s.PathSeen[i].Hash < s.PathSeen[j].Hash })
	for _, it := range f.queue.Dump() {
		s.Queue = append(s.Queue, snapCandidate(it.Value, it.Score))
	}
	if f.sCur != nil {
		// The popped candidate is re-scored when it is re-enqueued, so
		// its pop-time score is not campaign state.
		sc := snapCandidate(f.sCur, 0)
		s.SCur = &sc
	}
	if f.hyb != nil {
		h := f.hyb
		s.Hybrid = &SnapHybrid{
			Fed: h.fed, ExploreLeft: h.exploreLeft, MineLeft: h.mineLeft,
			SliceLeft: h.sliceLeft, Stage: h.stage, PhaseActive: h.phaseActive,
			PhaseCap: h.phaseCap, PhaseMining: h.phaseMining,
			PhaseKind: h.phaseKind, PhaseRound: h.phaseRound,
			Emitted: h.g.Emitted(),
		}
	}
	return s
}

// Restore rebuilds a campaign from a snapshot over prog — which must
// be the same subject the snapshot was taken on. The snapshot
// supplies every serializable knob; cfg supplies what a snapshot
// cannot carry (the Events sink and the MineLexer, which must match
// the original) and may rebudget the campaign: any positive
// cfg.MaxExecs (larger to extend, smaller to stop earlier — even
// immediately, if already passed), cfg.MaxValids, or cfg.Deadline
// overrides the saved value. The Deadline counts active campaign
// time, which the snapshot carries — a resumed campaign continues its
// clock, it does not restart it. Everything else in cfg is ignored.
//
// The restored campaign is exact: its RNG stream
// is fast-forwarded to the saved draw position and its queue, dedup
// sets and loop cursor are rebuilt in order, so stepping it produces
// the same executions an uninterrupted run would from that point.
func Restore(prog subject.Program, cfg Config, s *Snapshot) (*Campaign, error) {
	if s == nil {
		return nil, errors.New("core: nil snapshot")
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, this build writes %d", s.Version, snapshotVersion)
	}
	base := s.Config.config()
	base.Events = cfg.Events
	base.MineLexer = cfg.MineLexer
	if cfg.MaxExecs > 0 {
		base.MaxExecs = cfg.MaxExecs
	}
	if cfg.MaxValids > 0 {
		base.MaxValids = cfg.MaxValids
	}
	if cfg.Deadline > 0 {
		base.Deadline = cfg.Deadline
	}
	if cfg.Cache != CacheAuto {
		// An explicit CacheOn/CacheOff overrides the saved mode — safe
		// either way, since the cache never changes what a campaign
		// emits. The contents are not serialized; a resumed campaign
		// rebuilds them lazily and only the counters carry over.
		base.Cache = cfg.Cache
	}
	f := New(prog, base)
	f.ran = true

	for i := uint64(0); i < s.RNGDraws; i++ {
		//pdlint:ignore enginerand -- fast-forwarding the restored stream to the saved position; the draw counter is set right below
		f.cs.src.Int63()
	}
	f.cs.draws = s.RNGDraws

	f.began = s.Began
	if s.Began {
		f.res.Coverage = make(map[uint32]bool, len(s.Coverage))
		for _, id := range s.Coverage {
			f.res.Coverage[id] = true
		}
	}
	f.clock.Load(time.Duration(s.ElapsedNS))
	f.res.Elapsed = time.Duration(s.ElapsedNS)
	f.res.Execs = s.Execs
	f.res.CacheHits = s.CacheHits
	f.res.CacheMisses = s.CacheMisses
	f.res.CacheRetired = s.CacheRetired
	f.cacheCheckAt = s.CacheCheckAt
	if s.CacheRetired {
		if f.cache != nil && base.Cache == CacheAuto {
			// The adaptive rule had already dropped the cache;
			// resurrect the decision, not the storage, so the retired
			// flag stays truthful and the resumed campaign keeps
			// counting misses the way the interrupted one would have.
			f.cache.Retire()
		} else {
			// An explicit CacheOn/CacheOff override supersedes the old
			// adaptive verdict; the flag describes this campaign's
			// cache, which is live (or absent) again.
			f.res.CacheRetired = false
		}
	}
	f.res.ExecElapsed = time.Duration(s.ExecElapsedNS)
	for i := range s.Valids {
		v := &s.Valids[i]
		f.res.Valids = append(f.res.Valids, Valid{Input: v.Input, NewBlocks: v.NewBlocks, Exec: v.Exec})
		f.validSeen[string(v.Input)] = struct{}{}
	}
	for _, id := range s.VBr {
		f.vBr.add(id)
	}
	for _, k := range s.Seen {
		f.seen[string(k)] = struct{}{}
	}
	for _, pc := range s.PathSeen {
		n := pc.Count
		f.pathSeen[pc.Hash] = &n
	}
	f.longestValid = s.LongestValid
	f.miningActive = s.MiningActive
	f.sStarted = s.SStarted
	f.sInput = s.SInput
	f.sExt = s.SExt
	f.curParents = s.CurParents
	f.curMineGen = s.CurMineGen
	if s.SCur != nil {
		f.sCur = s.SCur.candidate()
	}

	// Every candidate restores into the queue in snapshot order.
	for i := range s.Queue {
		e := &s.Queue[i]
		f.queue.Push(e.candidate(), e.Score)
	}

	if s.Hybrid != nil {
		h := f.ensureHybrid() // seeds MineSeeds, recomputes the budget split
		hb := s.Hybrid
		// Replay the valids the original had folded in, in emission
		// order, reproducing the incremental grammar exactly.
		for i := 0; i < hb.Fed && i < len(f.res.Valids); i++ {
			h.g.Add(f.res.Valids[i].Input)
		}
		h.g.MarkEmitted(hb.Emitted)
		h.fed = hb.Fed
		h.exploreLeft = hb.ExploreLeft
		h.mineLeft = hb.MineLeft
		h.sliceLeft = hb.SliceLeft
		h.stage = hb.Stage
		h.phaseActive = hb.PhaseActive
		h.phaseCap = hb.PhaseCap
		h.phaseMining = hb.PhaseMining
		h.phaseKind = hb.PhaseKind
		h.phaseRound = hb.PhaseRound
		// An extended budget flows into the final exploration sweep —
		// including on a campaign that had already finished, whose
		// terminal stage must reopen or campaignOver would report done
		// before the new budget is touched.
		h.total = base.MaxExecs
		if h.stage == hsDone && !h.phaseActive && f.res.Execs < h.total {
			h.stage = hsFinal
		}
	}
	return &Campaign{f: f}, nil
}
