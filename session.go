package canary

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"canary/internal/bitset"
	"canary/internal/cache"
	"canary/internal/core"
	"canary/internal/digest"
	"canary/internal/diskstore"
	"canary/internal/failpoint"
	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/pipeline"
	"canary/internal/pta"
	"canary/internal/smt"
)

// Session holds the warm state that makes repeated analyses incremental:
//
//   - a digest-keyed per-function summary store: each function's points-to
//     transfer summary is cached under a structural content digest of the
//     function and its transitive callees, so after an edit only the
//     functions whose behavior could have changed (the reverse dependency
//     cone of the edit) re-enter the summary fixpoint;
//   - a cross-run SMT verdict store: each source–sink query's verdict and
//     model are cached under a structural serialization of its constraint
//     system, portable across the instruction-label shifts a re-parse
//     introduces, so unchanged pairs replay instead of re-solving.
//
// Both stores are content-addressed — a key changes exactly when the input
// it digests changes — so they never need invalidation and are safe to
// share across unrelated programs. The determinism contract is preserved:
// an analysis through a warm Session returns byte-identical reports,
// guards, traces, and schedules to a cold one; only the stats describing
// the work performed differ.
//
// A Session is safe for concurrent use by multiple goroutines (canaryd
// shares one across jobs). The zero-value *Session (nil) is valid and
// means "no warm state": every package-level entry point runs through it.
type Session struct {
	summaries *pta.Store
	verdicts  *smt.VerdictStore

	// disk, when non-nil, is the persistent backend both warm stores are
	// tiered over (see NewSessionOnDisk); tiers holds the write-behind
	// wrappers so Flush/Close can drain them.
	disk  *diskstore.Store
	tiers []*diskstore.Tiered

	// Panic-isolation observables: how many panics this session's
	// analyses recovered into ErrInternal errors, and how many summary
	// entries Quarantine evicted as possibly poisoned.
	panics      atomic.Uint64
	quarantined atomic.Uint64
}

// NewSession returns an empty in-memory warm store with default bounds;
// its state dies with the process.
func NewSession() *Session {
	return &Session{
		summaries: pta.NewStore(0),
		verdicts:  smt.NewVerdictStore(0),
	}
}

// NewSessionOnDisk returns a warm session whose summary and verdict
// stores are tiered over the given persistent disk store (under the
// "summary" and "verdict" namespaces): lookups try memory then disk,
// writes land in memory and flush to disk asynchronously. A nil ds
// degrades to NewSession. The caller may share ds with other tiers
// (canaryd puts its result cache on the same store).
func NewSessionOnDisk(ds *diskstore.Store) *Session {
	if ds == nil {
		return NewSession()
	}
	st := diskstore.NewTiered(cache.New(0), ds.NS("summary"), 0)
	vt := diskstore.NewTiered(cache.New(smt.DefaultVerdictEntries), ds.NS("verdict"), 0)
	return &Session{
		summaries: pta.NewStoreOn(st),
		verdicts:  smt.NewVerdictStoreOn(vt),
		disk:      ds,
		tiers:     []*diskstore.Tiered{st, vt},
	}
}

// NewPersistentSession opens (or reopens) the content-addressed disk
// store rooted at dir, bounded to maxBytes (<= 0 selects the diskstore
// default), and returns a warm session tiered over it. A fresh process
// pointed at a populated dir starts warm: unchanged functions load their
// summaries and unchanged source–sink pairs replay their verdicts from
// disk, with output byte-identical to a cold run. Call Close (or at
// least Flush) before process exit so write-behind entries land.
func NewPersistentSession(dir string, maxBytes int64) (*Session, error) {
	ds, err := diskstore.Open(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	return NewSessionOnDisk(ds), nil
}

// Flush blocks until every warm-store write enqueued so far has reached
// the disk store. A no-op for nil and memory-only sessions.
func (s *Session) Flush() {
	if s == nil {
		return
	}
	for _, t := range s.tiers {
		t.Flush()
	}
}

// Close drains and stops the write-behind flushers. The session remains
// usable afterwards (reads still hit both tiers; new writes stay
// in-memory only). A no-op for nil and memory-only sessions.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	for _, t := range s.tiers {
		t.Close()
	}
	return nil
}

// DiskStats is a snapshot of a session's persistent-store counters (all
// zero for memory-only sessions): tiered lookups answered from disk,
// true disk misses, completed entry writes, checksum-failed entries
// healed to misses, GC evictions, write-behind drops, and the store's
// current footprint.
type DiskStats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Writes         uint64 `json:"writes"`
	CorruptEntries uint64 `json:"corrupt_entries"`
	GCEvictions    uint64 `json:"gc_evictions"`
	DroppedWrites  uint64 `json:"dropped_writes"`
	Bytes          int64  `json:"bytes"`
	Entries        int64  `json:"entries"`
}

// Stats is one snapshot of the counters behind a session's analyses:
// the session's own warm stores and recovery bookkeeping, its persistent
// store, and the process-wide hot-path structures every analysis in the
// process shares.
type Stats struct {
	// SummaryHits/SummaryMisses and VerdictHits/VerdictMisses are the
	// cumulative lookups of the per-function summary store and the SMT
	// verdict store.
	SummaryHits, SummaryMisses uint64
	VerdictHits, VerdictMisses uint64
	// PanicsRecovered counts pipeline panics this session's analyses
	// recovered into ErrInternal errors; QuarantinedSummaries counts the
	// summary entries Quarantine evicted as possibly poisoned.
	PanicsRecovered      uint64
	QuarantinedSummaries uint64
	// Disk holds the persistent-store counters.
	Disk DiskStats
	// The process-wide counters. GuardInternHits/GuardInternMisses count
	// lookups in the guard hash-cons interner: hits concentrate where
	// structured formulas are built repeatedly (lowering, Φ_ls/Φ_po
	// encoding), and VFGStats.CacheHits is the per-build slice of them.
	// GuardInterned is the interner's live table size, BitsetWords the
	// cumulative uint64 words allocated by bitset-backed points-to and
	// location sets, and BatchedEvals the formula evaluations served by
	// the batched assignment-slice evaluator instead of per-call maps.
	GuardInternHits, GuardInternMisses uint64
	GuardInterned                      int64
	BitsetWords                        int64
	BatchedEvals                       uint64
}

// Stats returns a snapshot of the session's counters. A nil or
// memory-only session reports zero for what it does not have; the
// process-wide counters are filled either way.
func (s *Session) Stats() Stats {
	var st Stats
	st.GuardInternHits, st.GuardInternMisses = guard.InternStats()
	st.GuardInterned = guard.InternedCount()
	st.BitsetWords = bitset.WordsAllocated()
	st.BatchedEvals = guard.BatchedEvals()
	if s == nil {
		return st
	}
	st.SummaryHits, st.SummaryMisses = s.summaries.Stats()
	st.VerdictHits, st.VerdictMisses = s.verdicts.Stats()
	st.PanicsRecovered = s.panics.Load()
	st.QuarantinedSummaries = s.quarantined.Load()
	if s.disk != nil {
		ds := s.disk.Stats()
		st.Disk = DiskStats{
			Hits:           ds.Hits,
			Misses:         ds.Misses,
			Writes:         ds.Writes,
			CorruptEntries: ds.CorruptEntries,
			GCEvictions:    ds.GCEvictions,
			Bytes:          ds.Bytes,
			Entries:        ds.Entries,
		}
		for _, t := range s.tiers {
			st.Disk.DroppedWrites += t.DroppedWrites()
		}
	}
	return st
}

// ErrNoDiskStore is returned by ExportWarm/ImportWarm on a session
// without a persistent backend.
var ErrNoDiskStore = errors.New("canary: session has no persistent warm store")

// ExportWarm writes the session's whole persistent store (summaries,
// verdicts, and any co-tenant namespaces) as a single-file snapshot
// archive to w, for shipping a warm cache to another machine. Pending
// write-behind entries are flushed first. Returns the entry count.
func (s *Session) ExportWarm(w io.Writer) (int, error) {
	if s == nil || s.disk == nil {
		return 0, ErrNoDiskStore
	}
	s.Flush()
	return s.disk.Export(w)
}

// ImportWarm merges a snapshot archive into the session's persistent
// store. Entries failing verification are skipped — an import can add
// warm state, never corrupt it. Returns the imported entry count.
func (s *Session) ImportWarm(r io.Reader) (int, error) {
	if s == nil || s.disk == nil {
		return 0, ErrNoDiskStore
	}
	return s.disk.Import(r)
}

// verdictStore returns the verdict store, or nil for a nil session.
func (s *Session) verdictStore() *smt.VerdictStore {
	if s == nil {
		return nil
	}
	return s.verdicts
}

// Quarantine evicts every per-function summary of src from the session's
// store and reports how many entries were removed. It is the recovery
// step after a panic during src's analysis: the panicking run may have
// stored half-built state under src's digests, and evicting those keys
// restores the invariant that a warm analysis is byte-identical to a
// cold one. The verdict store needs no eviction — verdicts are written
// only after a completed solve. A nil session quarantines nothing.
//
// Quarantine is deliberately infallible: if src no longer parses (or the
// parser itself is the faulty stage), there is nothing keyed under it to
// evict, and the method returns 0.
func (s *Session) Quarantine(src string) (evicted int) {
	if s == nil {
		return 0
	}
	defer func() {
		// A parse-stage panic (e.g. an armed parse failpoint) must not
		// escape the recovery path that called us.
		_ = recover()
	}()
	ast, err := lang.Parse(src)
	if err != nil {
		return 0
	}
	for _, k := range digest.SummaryKeys(ast) {
		if s.summaries.Delete(k) {
			evicted++
		}
	}
	s.quarantined.Add(uint64(evicted))
	return evicted
}

// recordPanic is the shared recovery bookkeeping of the API-boundary
// recover()s: count the panic and quarantine the program that caused it.
func (s *Session) recordPanic(src string) {
	if s == nil {
		return
	}
	s.panics.Add(1)
	s.Quarantine(src)
}

// Analyze is the package-level Analyze running against the session's
// warm stores, with cooperative cancellation: both the VFG fixpoint
// (between rounds) and the checking stage (between source–sink searches)
// poll ctx, so a canceled or deadline-bounded analysis returns promptly
// with an error wrapping ErrCanceled. It is implemented as a live session
// opened and discarded in one call, so the one-shot and edit-streaming
// entry points share a single analysis spine rather than maintaining two.
func (s *Session) Analyze(ctx context.Context, src string, opt Options) (*Result, error) {
	live, _, err := s.OpenLive(ctx, src, opt, LiveConfig{})
	if err != nil {
		return nil, err
	}
	res := live.Result()
	live.Close()
	return res, nil
}

// classifyStageErr converts an error escaping a pipeline.Runner stage
// into its public form: a captured panic counts against the session,
// quarantines src's summaries, and wraps ErrInternal (keeping the
// original panic value in the message); anything else goes through
// wrapAbort so injected faults and context cancellation keep their typed
// causes.
func classifyStageErr(s *Session, src string, err error) error {
	var pe *pipeline.PanicError
	if errors.As(err, &pe) {
		s.recordPanic(src)
		return fmt.Errorf("canary: %w: %v", ErrInternal, pe.Value)
	}
	return wrapAbort(err)
}

// NewAnalysis parses and lowers src and builds the interference-aware
// VFG once, loading the transfer summaries of digest-unchanged functions
// from the session's store instead of recomputing them. Use Check to run
// (possibly several rounds of) checkers over it; the checking stage
// consults the session's verdict store. A nil receiver degrades to the
// cold path (every function analyzed, every query solved). The VFG
// fixpoint checks ctx between rounds and aborts with an error wrapping
// ErrCanceled (and the context cause) when it is done.
//
// Every stage runs through the pipeline.Runner, which uniformly applies
// the cancellation checkpoint, entry-site fault injection, panic capture,
// and span timing; a panic escaping any build stage is recovered into an
// error wrapping ErrInternal, after quarantining src's per-function
// summaries from the session so one poisoned run cannot corrupt warm
// state for later jobs.
func (s *Session) NewAnalysis(ctx context.Context, src string, opt Options) (*Analysis, error) {
	return s.newAnalysis(ctx, src, opt, analysisInput{})
}

// analysisInput carries work a caller already did into the spine. A
// live session parses the patched source to validate the edit batch and
// digests it to compute the invalidated cone; handing both over here
// means the pipeline does not parse or digest the same revision a
// second time. Zero value = the spine does everything itself.
type analysisInput struct {
	ast  *lang.Program
	keys map[string]cache.Key
}

func (s *Session) newAnalysis(ctx context.Context, src string, opt Options, in analysisInput) (a *Analysis, err error) {
	defer func() {
		// Last-resort net for panics outside the runner-wrapped stages.
		if r := recover(); r != nil {
			s.recordPanic(src)
			a, err = nil, fmt.Errorf("canary: %w: %v", ErrInternal, r)
		}
	}()
	if _, err := memoryModelOf(opt); err != nil {
		return nil, err
	}
	run := pipeline.NewRunner(failpoint.Inject)

	ast := in.ast
	if err := run.Run(ctx, pipeline.StageParse, func(sp *pipeline.Span) error {
		if ast == nil {
			var perr error
			if ast, perr = lang.Parse(src); perr != nil {
				return perr
			}
		}
		sp.Steps = int64(len(ast.Funcs))
		return nil
	}); err != nil {
		return nil, classifyStageErr(s, src, err)
	}

	// Summarize here (rather than inside ir.Lower) so the digest-keyed
	// store can satisfy unchanged functions. With no session this computes
	// exactly what Lower would have: all functions count as reanalyzed.
	keys := in.keys
	if keys == nil || s == nil {
		keys = digestKeysFor(s, ast)
	}
	var sums map[string]*pta.Summary
	var hits, reanalyzed int
	if err := run.Run(ctx, pipeline.StagePTA, func(sp *pipeline.Span) error {
		var serr error
		sums, hits, reanalyzed, serr = pta.SummariesKeyedContext(ctx, ast, keys, s.summaryStore())
		sp.Steps = int64(reanalyzed)
		sp.CacheHits = uint64(hits)
		return serr
	}); err != nil {
		return nil, classifyStageErr(s, src, err)
	}

	var prog *ir.Program
	if err := run.Run(ctx, pipeline.StageLower, func(sp *pipeline.Span) error {
		var lerr error
		prog, lerr = ir.Lower(ast, ir.Options{
			UnrollDepth: opt.UnrollDepth,
			InlineDepth: opt.InlineDepth,
			Entry:       opt.Entry,
			Summaries:   sums,
		})
		if prog != nil {
			sp.Steps = int64(prog.NumInsts())
		}
		return lerr
	}); err != nil {
		return nil, classifyStageErr(s, src, err)
	}

	// The VFG build interleaves the MHP, Alg. 1 data-dependence, and
	// Alg. 2 interference passes inside one fixpoint; the builder times
	// each internally, the vfg span keeps the residual of its own wall
	// time (merge and bookkeeping), and the three sub-stages are recorded
	// as their own spans below so the trace partitions the build's
	// wall-clock.
	var b *core.Builder
	if err := run.Run(ctx, pipeline.StageVFG, func(sp *pipeline.Span) error {
		start := time.Now()
		var berr error
		b, berr = core.BuildContext(ctx, prog, core.BuildOptions{
			EnableMHP:       opt.EnableMHP,
			GuardCap:        opt.GuardCap,
			MaxIterations:   opt.Budgets.MaxFixpointRounds,
			Workers:         opt.Workers,
			SummaryHits:     hits,
			FuncsReanalyzed: reanalyzed,
		})
		if b == nil {
			return berr
		}
		st := b.Stats
		sp.Steps = int64(st.Iterations)
		sp.Budget = int64(opt.Budgets.MaxFixpointRounds)
		sp.CacheHits = st.GuardCacheHits
		// The sub-stage times are disjoint slices of this call, so the
		// residual is never negative; the floor keeps it non-zero, since
		// the runner fills a zero Wall with the whole call.
		sp.Wall = max(time.Since(start)-st.MHPTime-st.DataDepTime-st.InterferTime, time.Nanosecond)
		return berr
	}); err != nil {
		return nil, classifyStageErr(s, src, err)
	}
	run.Record(pipeline.Span{Stage: pipeline.StageMHP, Wall: b.Stats.MHPTime})
	run.Record(pipeline.Span{
		Stage: pipeline.StageDataDep,
		Wall:  b.Stats.DataDepTime,
		Steps: int64(b.Stats.DataDepEdges),
	})
	run.Record(pipeline.Span{
		Stage: pipeline.StageInterference,
		Wall:  b.Stats.InterferTime,
		Steps: int64(b.Stats.InterferenceEdges),
	})
	return &Analysis{opt: opt, b: b, session: s, src: src, run: run, keys: keys}, nil
}

// summaryStore returns the summary store, or nil for a nil session.
func (s *Session) summaryStore() *pta.Store {
	if s == nil {
		return nil
	}
	return s.summaries
}

// digestKeysFor computes the per-function summary keys, skipping the digest
// pass entirely when there is no store to hit.
func digestKeysFor(s *Session, ast *lang.Program) map[string]cache.Key {
	if s == nil {
		return nil
	}
	return digest.SummaryKeys(ast)
}

// ErrSessionClosed is returned by LiveSession methods after Close.
var ErrSessionClosed = errors.New("canary: live session is closed")

// ErrEditRejected wraps every edit-batch rejection — an out-of-range or
// overlapping span, or a patch whose result no longer parses. A
// rejected batch leaves the session's revision and findings untouched,
// so the client can correct and resubmit against the same Seq.
var ErrEditRejected = errors.New("canary: edit rejected")

// LiveConfig tunes a live session's analysis runs beyond Options.
type LiveConfig struct {
	// StageTimeout, when positive, separately bounds the build and check
	// halves of every (re-)analysis, mirroring canaryd's -stage-timeout
	// split of one-shot jobs.
	StageTimeout time.Duration
}

// LiveSession is the edit-native analysis engine: it holds the current
// revision of one program, accepts line-span edit batches against it,
// re-analyzes through the session's warm stores, and reports each
// batch's effect as a FindingsDelta. The determinism contract extends
// the warm-session one: folding the open delta and every edit delta in
// order reproduces, byte for byte, the findings a cold full analysis of
// the final revision would emit.
//
// Two fast paths make edits cheaper than one-shot re-analysis. First,
// an edit whose canonical source (comments and whitespace stripped,
// line structure preserved) is unchanged skips the pipeline entirely —
// the previous findings are provably still exact. Second, a real edit
// re-enters the pipeline with the parent Session's digest-keyed summary
// and verdict stores hot, so only the invalidated reverse-reachable
// cone is recomputed.
//
// A LiveSession is safe for concurrent use; edits serialize against
// each other and against reads. The parent *Session may be nil (no warm
// state) — deltas stay exact, only the reuse disappears.
type LiveSession struct {
	s   *Session
	opt Options
	lc  LiveConfig

	mu      sync.Mutex
	closed  bool
	seq     int
	src     string
	canon   string
	keys    map[string]cache.Key // current revision's summary keys, seeded by the open analysis
	res     *Result
	reports []Report
}

// Open is OpenLive with a background context and the default
// LiveConfig.
func (s *Session) Open(src string, opt Options) (*LiveSession, *FindingsDelta, error) {
	return s.OpenLive(context.Background(), src, opt, LiveConfig{})
}

// OpenLive runs the initial full analysis of src and returns the live
// session together with its opening delta (Seq 0, every finding Added —
// folding it into an empty findings list yields the initial findings).
func (s *Session) OpenLive(ctx context.Context, src string, opt Options, lc LiveConfig) (*LiveSession, *FindingsDelta, error) {
	l := &LiveSession{s: s, opt: opt, lc: lc}
	res, keys, err := l.runSpine(ctx, src, analysisInput{})
	if err != nil {
		return nil, nil, err
	}
	l.src = src
	l.canon = digest.CanonicalSource(src)
	l.keys = keys
	l.res = res
	l.reports = res.Reports
	d := DiffReports(nil, res.Reports)
	d.Seq = 0
	d.Reanalyzed = true
	return l, d, nil
}

// runSpine is the one analysis path every entry point shares: the
// session-warm build then check, optionally with canaryd's per-stage
// wall-clock split. It also returns the summary keys the build settled
// on, so callers can keep an invalidation baseline without re-digesting.
func (l *LiveSession) runSpine(ctx context.Context, src string, in analysisInput) (*Result, map[string]cache.Key, error) {
	if l.lc.StageTimeout <= 0 {
		a, err := l.s.newAnalysis(ctx, src, l.opt, in)
		if err != nil {
			return nil, nil, err
		}
		res, err := a.Check(ctx)
		return res, a.keys, err
	}
	buildCtx, cancelBuild := context.WithTimeout(ctx, l.lc.StageTimeout)
	a, err := l.s.newAnalysis(buildCtx, src, l.opt, in)
	cancelBuild()
	if err != nil {
		return nil, nil, err
	}
	checkCtx, cancelCheck := context.WithTimeout(ctx, l.lc.StageTimeout)
	defer cancelCheck()
	res, err := a.Check(checkCtx)
	return res, a.keys, err
}

// ApplyEdits applies one batch of line-span edits to the current
// revision and returns the findings delta it caused. Invalid batches
// and unparsable patches return an error wrapping ErrEditRejected with
// the session unchanged; analysis failures (cancellation, injected
// faults) likewise leave the previous revision and findings in place.
func (l *LiveSession) ApplyEdits(ctx context.Context, edits []Edit) (*FindingsDelta, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrSessionClosed
	}
	dEdits := make([]digest.Edit, len(edits))
	for i, e := range edits {
		dEdits[i] = digest.Edit{Start: e.Start, End: e.End, Text: e.Text}
	}
	patched, err := digest.ApplyEdits(l.src, dEdits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEditRejected, err)
	}
	if digest.CanonicalEqual(patched, l.canon) {
		// Representation-only edit: the canonical source (comments and
		// trailing whitespace stripped, line structure preserved) is
		// unchanged, so the token stream — and with it parseability,
		// every function's digest, and every finding — is provably
		// identical to the revision already analyzed. No parse needed.
		l.src = patched
		l.seq++
		return &FindingsDelta{Seq: l.seq, Unchanged: len(l.reports)}, nil
	}
	ast, perr := lang.Parse(patched)
	if perr != nil {
		return nil, fmt.Errorf("%w: patched source: %v", ErrEditRejected, perr)
	}
	if l.keys == nil {
		// Sessionless live session (nil *Session): the spine computed no
		// keys at open, so key the pre-edit revision here (it parsed when
		// it was analyzed, so this cannot fail).
		cur, cerr := lang.Parse(l.src)
		if cerr != nil {
			return nil, fmt.Errorf("canary: internal: current revision unparsable: %v", cerr)
		}
		l.keys = digest.SummaryKeys(cur)
	}
	newKeys := digest.SummaryKeys(ast)
	invalidated := digest.Invalidated(l.keys, newKeys)
	res, _, err := l.runSpine(ctx, patched, analysisInput{ast: ast, keys: newKeys})
	if err != nil {
		return nil, err
	}
	d := DiffReports(l.reports, res.Reports)
	d.Seq = l.seq + 1
	d.Reanalyzed = true
	d.Invalidated = invalidated
	l.src = patched
	l.canon = digest.CanonicalSource(patched)
	l.keys = newKeys
	l.res = res
	l.reports = res.Reports
	l.seq++
	return d, nil
}

// Seq returns the current revision number (0 after Open, +1 per
// accepted edit batch).
func (l *LiveSession) Seq() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Source returns the current revision's source text ("" after Close).
func (l *LiveSession) Source() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.src
}

// Reports returns the current findings. The slice is shared: callers
// must not mutate it.
func (l *LiveSession) Reports() []Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reports
}

// Result returns the full result of the most recent analysis run (nil
// after Close). Representation-only edits do not re-run the pipeline,
// so after one the stats describe the last real run while the reports
// remain exact for the current revision.
func (l *LiveSession) Result() *Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.res
}

// Close marks the session closed and releases its held revision and
// findings. Further edits return ErrSessionClosed. The parent Session
// and its warm stores are unaffected.
func (l *LiveSession) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.src, l.canon = "", ""
	l.keys = nil
	l.res = nil
	l.reports = nil
}
