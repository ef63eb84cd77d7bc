package granting

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/hose"
	"entitlement/internal/obs/trace"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

// Sink receives granted contracts; both contractdb.Store (in-process) and
// contractdb.Client (remote database) satisfy it. A nil sink keeps grantd
// decision-only.
type Sink interface {
	Put(c contract.Contract) error
}

// ErrPending is returned by Wait when the decision has not landed within the
// caller's patience.
var ErrPending = errors.New("granting: decision pending")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("granting: service closed")

// ErrOverloaded is returned by Submit when the admission queue is at
// Options.MaxQueue: the service sheds instead of queueing without bound.
// The error reaches callers wrapped in wire.Overloaded carrying the
// retry-after hint, so detect it with errors.Is and read the hint with
// errors.As on *wire.Overloaded (server side) or *wire.OverloadedError
// (across the wire).
var ErrOverloaded = errors.New("granting: admission queue full")

// Stats is a point-in-time snapshot of the service counters, for the report
// endpoint and tests.
type Stats struct {
	Submitted  int64  `json:"submitted"`
	Decided    int64  `json:"decided"`
	Approved   int64  `json:"approved"`
	Negotiated int64  `json:"negotiated"`
	Rejected   int64  `json:"rejected"`
	Errors     int64  `json:"errors"`
	Batches    int64  `json:"batches"`
	QueueDepth int    `json:"queue_depth"`
	MemoHits   int64  `json:"decision_cache_hits"`
	MemoMisses int64  `json:"decision_cache_misses"`
	Epoch      uint64 `json:"topology_epoch"`
	// Shed counts submissions refused because the queue was at MaxQueue.
	Shed int64 `json:"shed,omitempty"`
	// QueueTimeouts counts requests failed for aging past MaxQueueDelay.
	QueueTimeouts int64 `json:"queue_timeouts,omitempty"`
	// RecoveredDecided and RecoveredPending report what the last journal
	// replay restored (decisions served byte-identically vs. submissions
	// re-queued for a deterministic re-decision).
	RecoveredDecided int64 `json:"recovered_decided,omitempty"`
	RecoveredPending int64 `json:"recovered_pending,omitempty"`
}

// countDecided folds one decided batch into the counters; journal replay
// uses it too, so recovered stats match what the live service counted. A
// batch of queue timeouts never ran a risk pass and is not a Batch.
func (st *Stats) countDecided(decs []Decision) {
	riskDecided := false
	for i := range decs {
		st.Decided++
		switch decs[i].Status {
		case StatusApproved:
			st.Approved++
		case StatusNegotiated:
			st.Negotiated++
		case StatusRejected:
			st.Rejected++
		case StatusQueueTimeout:
			st.QueueTimeouts++
			continue
		default:
			st.Errors++
		}
		riskDecided = true
	}
	if riskDecided {
		st.Batches++
	}
}

// submission is one queue entry: a group of requests decided atomically in
// one risk pass (SubmitGroup), or a single request eligible for coalescing.
type submission struct {
	reqs     []Request
	ids      []string
	enqueued time.Time
	done     chan struct{}
	decs     []Decision // decs[i] answers ids[i]; set before done closes

	// tc parents this submission's lifecycle spans: the submitter's context
	// when one came across the wire, otherwise the context of rootSp — a
	// root grantd.submission span the service opens itself so even untraced
	// submitters get a queryable tree (its trace ID returns in submitReply).
	// Recovered submissions are untraced (zero tc; every span call no-ops).
	tc     trace.Context
	rootSp trace.Span // self-rooted span; zero when the submitter traced us
	qsp    trace.Span // grantd.queue span: enqueue → pop
}

// finishRoot closes the self-rooted span, if this submission owns one.
func (sub *submission) finishRoot() { sub.rootSp.Finish() }

// Service is the admission queue around DecideBatch: a single decider
// goroutine drains submissions — coalescing compatible singles into one
// batch — decides them through the epoch-keyed cache, and pushes granted
// contracts into the sink. Submissions are asynchronous; callers follow up
// with Wait or Status.
type Service struct {
	topo   *topology.Topology
	sink   Sink
	opts   Options
	c      *cache
	j      *Journal // nil without Options.WAL.Dir
	tracer *trace.Collector

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*submission
	subs    map[string]*submission // pending id → submission
	decided map[string]*Decision
	order   []string // decided ids, oldest first (retention ring)
	stats   Stats
	seq     uint64
	closed  bool
	killed  bool // Kill(): stop without draining or closing the journal
	done    chan struct{}

	// inflight is what the decider popped and has not yet handed to publish,
	// in queue order: neither queued nor decided, so a snapshot taken by the
	// committer meanwhile has to carry it as pending.
	inflight []*submission
	// staged is the open commit group (FsyncBatch): decided batches whose dec
	// records are written but not yet covered by a sync, in decision order.
	// The committer syncs once per group and only then publishes it.
	staged     []decidedBatch
	commitCond *sync.Cond // signalled when staged grows or the decider exits
	drained    bool       // the decider has exited; nothing more will stage
}

// NewService starts the decider. Close releases it. With Options.WAL.Dir
// set it recovers from the journal first and panics if that fails; use
// OpenService to handle recovery errors.
func NewService(topo *topology.Topology, sink Sink, opts Options) *Service {
	s, err := OpenService(topo, sink, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// OpenService starts the decider, replaying the write-ahead journal first
// when Options.WAL.Dir is set: already-decided request ids answer with
// byte-identical decisions, and accepted-but-undecided submissions re-queue
// (in their original order) for a deterministic re-decision. Recovered
// contracts are re-pushed into the sink — idempotent for both contract
// stores — so enforcement agents reconverge even if the sink also lost
// state. The recovered state is immediately checkpointed into a fresh
// journal generation, so a torn tail is never appended to.
func OpenService(topo *topology.Topology, sink Sink, opts Options) (*Service, error) {
	o := opts.withDefaults()
	s := &Service{
		topo: topo,
		sink: sink,
		opts: o,
		c:    newCache(topo, o.MemoMaxEntries),
		subs: make(map[string]*submission),

		decided: make(map[string]*Decision),
		done:    make(chan struct{}),
	}
	s.tracer = o.Tracer
	if s.tracer == nil {
		s.tracer = trace.Default()
	}
	s.cond = sync.NewCond(&s.mu)
	s.commitCond = sync.NewCond(&s.mu)
	if o.WAL.Dir != "" {
		j, st, err := openJournal(o.WAL)
		if err != nil {
			return nil, err
		}
		s.j = j
		s.recover(st)
	}
	go s.run()
	return s, nil
}

// recover installs a replayed journal state before the decider starts.
func (s *Service) recover(st *Recovered) {
	s.seq = st.Seq
	s.stats = st.Stats
	s.stats.RecoveredDecided = int64(len(st.Decided))
	s.stats.RecoveredPending = 0
	for i := range st.Decided {
		d := st.Decided[i] // copy; the loop variable's Dec address is reused
		s.decided[d.ID] = &d.Dec
		s.order = append(s.order, d.ID)
		// Re-push surviving contracts: Put is keyed by NPG in both sinks,
		// so replaying oldest→newest converges on the pre-crash state and
		// repairs a sink that lost data alongside grantd.
		if s.sink != nil && d.Dec.Contract != nil {
			if err := s.sink.Put(*d.Dec.Contract); err != nil {
				mStoreFails.Inc()
			}
		}
	}
	for len(s.order) > retain {
		delete(s.decided, s.order[0])
		s.order = s.order[1:]
	}
	now := s.opts.Now()
	for _, p := range st.Pending {
		sub := &submission{
			reqs: p.Reqs,
			ids:  p.IDs,
			// The submitter's clock restarts with the daemon: aging the
			// recovered queue against MaxQueueDelay across the downtime
			// would time out every in-flight request on every restart.
			enqueued: now,
			done:     make(chan struct{}),
		}
		for _, id := range sub.ids {
			s.subs[id] = sub
		}
		s.queue = append(s.queue, sub)
		s.stats.RecoveredPending += int64(len(sub.ids))
	}
	mRecoveredDecisions.Add(int64(len(st.Decided)))
	mRecoveredPending.Add(s.stats.RecoveredPending)
	mQueueDepth.Set(float64(s.queueLenLocked()))
}

// Submit enqueues one request and returns its id immediately. The request is
// validated up front so queue-time failures cannot happen; a zero StartUnix
// is pinned to the submission clock (retries of the pinned request are then
// idempotent and memoizable).
func (s *Service) Submit(req Request) (string, error) {
	id, _, err := s.SubmitCtx(trace.Context{}, req)
	return id, err
}

// SubmitCtx is Submit under the caller's span context (the wire server's
// serve span): the submission's whole lifecycle — admission, queue wait,
// risk pass, journal write, contract push — becomes children of it. A zero
// tc makes grantd root the trace itself. The second return is the 32-hex
// trace ID of whichever tree the submission landed in ("" only when tracing
// recorded nothing, e.g. a shed with no trace).
func (s *Service) SubmitCtx(tc trace.Context, req Request) (string, string, error) {
	ids, traceID, err := s.submit(tc, []Request{req})
	if err != nil {
		return "", traceID, err
	}
	return ids[0], traceID, nil
}

// SubmitGroup enqueues requests that must be decided together in one risk
// pass — the batch-CLI equivalence path. The group is atomic: it never
// coalesces with other submissions.
func (s *Service) SubmitGroup(reqs []Request) ([]string, error) {
	ids, _, err := s.SubmitGroupCtx(trace.Context{}, reqs)
	return ids, err
}

// SubmitGroupCtx is SubmitGroup under the caller's span context; see
// SubmitCtx.
func (s *Service) SubmitGroupCtx(tc trace.Context, reqs []Request) ([]string, string, error) {
	if len(reqs) == 0 {
		return nil, "", errors.New("granting: empty group")
	}
	return s.submit(tc, reqs)
}

func (s *Service) submit(tc trace.Context, reqs []Request) ([]string, string, error) {
	// Deep-copy first: Validate fills empty hose NPGs, a zero StartUnix is
	// pinned below, and the decider goroutine reads the slice after submit
	// returns — the caller keeps undisturbed ownership of its arguments.
	cp := make([]Request, len(reqs))
	copy(cp, reqs)
	for i := range cp {
		cp[i].Hoses = append([]hose.Request(nil), cp[i].Hoses...)
		for j := range cp[i].Hoses {
			cp[i].Hoses[j].Segments = append([]hose.Segment(nil), cp[i].Hoses[j].Segments...)
		}
	}
	reqs = cp
	now := s.opts.Now()
	// Lifecycle tracing: parent everything under the submitter's context, or
	// self-root a grantd.submission span so untraced submitters still get a
	// queryable tree. The trace ID returns to the submitter either way.
	var rootSp trace.Span
	if !tc.Valid() {
		rootSp = s.tracer.StartRoot("grantd.submission")
		rootSp.SetService("grantd")
		if len(reqs) > 0 {
			rootSp.SetContract(string(reqs[0].NPG))
		}
		tc = rootSp.Context()
		// grantd minted this trace and echoes its ID to the submitter, who
		// will plausibly query it — set the sampled bit so tail sampling
		// keeps the tree even when the submission stays healthy.
		tc.Sampled = true
	}
	traceID := tc.TraceID()
	ssp := s.tracer.StartChild(tc, "grantd.submit")
	ssp.SetService("grantd")
	if len(reqs) > 0 {
		ssp.SetContract(string(reqs[0].NPG))
	}
	reject := func(err error) ([]string, string, error) {
		ssp.SetError(err)
		ssp.Finish()
		rootSp.Finish()
		return nil, traceID, err
	}
	for i := range reqs {
		if err := reqs[i].Validate(s.topo); err != nil {
			return reject(err)
		}
		if reqs[i].StartUnix == 0 {
			reqs[i].StartUnix = now.Unix()
		}
	}
	if len(reqs) > 1 {
		// Group members share one risk pass; colliding flow sets cannot.
		seen := make(map[string]bool)
		for i := range reqs {
			for j := range reqs[i].Hoses {
				k := reqs[i].Hoses[j].Key()
				if seen[k] {
					return reject(fmt.Errorf("granting: hose %s appears twice in group", k))
				}
				seen[k] = true
			}
		}
	}
	sub := &submission{reqs: reqs, enqueued: now, done: make(chan struct{}), tc: tc, rootSp: rootSp}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return reject(ErrClosed)
	}
	if depth := s.queueLenLocked(); s.opts.MaxQueue > 0 && depth+len(reqs) > s.opts.MaxQueue {
		// Shed instead of queueing without bound. The wire layer turns the
		// wrapper into a retryable response with the hint attached. The shed
		// flag forces tail sampling to keep the trace.
		s.stats.Shed += int64(len(reqs))
		mShed.Add(int64(len(reqs)))
		mQueueDepth.Set(float64(depth))
		s.mu.Unlock()
		ssp.Flag(trace.FlagShed)
		return reject(&wire.Overloaded{
			Err:        fmt.Errorf("%w: %d of %d slots used", ErrOverloaded, depth, s.opts.MaxQueue),
			RetryAfter: s.opts.ShedRetryAfter,
		})
	}
	sub.ids = make([]string, len(reqs))
	for i := range reqs {
		s.seq++
		sub.ids[i] = fmt.Sprintf("g-%d", s.seq)
	}
	if s.j != nil {
		// Write-ahead: the submission must be journaled before anyone can
		// observe its ids. A journal that cannot accept the record refuses
		// the submission — handing out an id that recovery would not know
		// about breaks the durability contract.
		if err := s.j.appendSub(sub.ids, reqs); err != nil {
			s.mu.Unlock()
			return reject(err)
		}
	}
	for _, id := range sub.ids {
		s.subs[id] = sub
	}
	// The queue span runs from enqueue until the decider pops the
	// submission — the admission-control wait made visible per trace.
	sub.qsp = s.tracer.StartChild(tc, "grantd.queue")
	sub.qsp.SetService("grantd")
	s.queue = append(s.queue, sub)
	s.stats.Submitted += int64(len(reqs))
	mRequests.Add(int64(len(reqs)))
	mQueueDepth.Set(float64(s.queueLenLocked()))
	s.cond.Signal()
	s.mu.Unlock()
	ssp.Finish()
	return append([]string(nil), sub.ids...), traceID, nil
}

func (s *Service) queueLenLocked() int {
	n := 0
	for _, sub := range s.queue {
		n += len(sub.reqs)
	}
	return n
}

// Wait blocks until the decision for id lands (or timeout; ErrPending).
func (s *Service) Wait(id string, timeout time.Duration) (*Decision, error) {
	s.mu.Lock()
	if d, ok := s.decided[id]; ok {
		s.mu.Unlock()
		return d, nil
	}
	sub, ok := s.subs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("granting: unknown request id %q", id)
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-sub.done:
	case <-t.C:
		return nil, ErrPending
	}
	// The submission carries its own decisions, so a released waiter never
	// queues on the service mutex behind a checkpoint.
	for i := range sub.ids {
		if sub.ids[i] == id {
			return &sub.decs[i], nil
		}
	}
	return nil, fmt.Errorf("granting: unknown request id %q", id)
}

// Status reports "pending", "decided", or "unknown" for id, with the
// decision when available.
func (s *Service) Status(id string) (string, *Decision) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.decided[id]; ok {
		return "decided", d
	}
	if _, ok := s.subs[id]; ok {
		return "pending", nil
	}
	return "unknown", nil
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.QueueDepth = s.queueLenLocked()
	st.Epoch = s.topo.Epoch()
	return st
}

// Recent returns up to n most recent decisions, newest first.
func (s *Service) Recent(n int) []Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || n > len(s.order) {
		n = len(s.order)
	}
	out := make([]Decision, 0, n)
	for i := len(s.order) - 1; i >= 0 && len(out) < n; i-- {
		if d, ok := s.decided[s.order[i]]; ok {
			out = append(out, *d)
		}
	}
	return out
}

// Close stops accepting submissions, decides what is already queued, and
// waits for the decider to drain.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
}

// run owns the service's goroutines: the decider, and under FsyncBatch the
// committer beside it. It returns once both have, after the closing
// checkpoint.
func (s *Service) run() {
	defer close(s.done)
	var committer sync.WaitGroup
	if s.j != nil && s.j.policy == FsyncBatch {
		committer.Add(1)
		go func() {
			defer committer.Done()
			s.commitLoop()
		}()
	}
	s.decideLoop()
	s.mu.Lock()
	s.drained = true
	s.commitCond.Signal()
	s.mu.Unlock()
	committer.Wait() // it publishes what is still staged, unless killed
	s.mu.Lock()
	if s.j != nil && !s.killed {
		// Closed and drained: snapshot once more so the next start replays a
		// single checkpoint record, then release the file.
		s.rotateLocked()
		s.j.Close()
	}
	s.mu.Unlock()
}

// decideLoop is the decider: it pops either one atomic group or a collision-
// free run of singles (up to MaxBatch) and decides them in one pass.
// Submissions that aged past MaxQueueDelay are failed with a queue-timeout
// decision before any batch is assembled — a late grant answers a question
// nobody is still asking. It runs until the service is closed and its queue
// drained, or killed (crash simulation: the queue is abandoned and the
// journal left exactly as it is — recovery is the cleanup).
func (s *Service) decideLoop() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed && !s.killed {
			s.cond.Wait()
		}
		if s.killed || len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		if s.opts.MaxQueueDelay > 0 {
			// The queue is FIFO, so expired submissions form a prefix.
			now := s.opts.Now()
			var expired []*submission
			for len(s.queue) > 0 && now.Sub(s.queue[0].enqueued) > s.opts.MaxQueueDelay {
				expired = append(expired, s.queue[0])
				s.queue = s.queue[1:]
			}
			if len(expired) > 0 {
				s.inflight = expired
				mQueueDepth.Set(float64(s.queueLenLocked()))
				s.mu.Unlock()
				s.failTimeout(expired)
				continue
			}
		}
		var batch []*submission
		if len(s.queue[0].reqs) > 1 {
			batch = []*submission{s.queue[0]}
			s.queue = s.queue[1:]
		} else {
			// Coalesce queued singles into one risk pass; stop at a group,
			// at MaxBatch, or at a hose-key collision (colliding flow sets
			// must be assessed in separate passes).
			seen := make(map[string]bool)
			n := 0
			for n < len(s.queue) && n < s.opts.MaxBatch && len(s.queue[n].reqs) == 1 {
				collides := false
				for j := range s.queue[n].reqs[0].Hoses {
					if seen[s.queue[n].reqs[0].Hoses[j].Key()] {
						collides = true
						break
					}
				}
				if collides {
					break
				}
				for j := range s.queue[n].reqs[0].Hoses {
					seen[s.queue[n].reqs[0].Hoses[j].Key()] = true
				}
				n++
			}
			batch = append([]*submission(nil), s.queue[:n]...)
			s.queue = s.queue[n:]
		}
		s.inflight = batch
		mQueueDepth.Set(float64(s.queueLenLocked()))
		s.mu.Unlock()
		s.decide(batch)
	}
}

// failTimeout publishes queue-timeout decisions for submissions that aged
// out: journaled like any decided batch (so a restart does not resurrect
// and late-decide them), never run through a risk pass.
func (s *Service) failTimeout(subs []*submission) {
	for _, sub := range subs {
		sub.qsp.SetError(fmt.Errorf("granting: queued longer than %s", s.opts.MaxQueueDelay))
		sub.qsp.Finish()
		decs := make([]Decision, len(sub.reqs))
		for i := range sub.reqs {
			decs[i] = Decision{
				ID:     sub.ids[i],
				NPG:    sub.reqs[i].NPG,
				Status: StatusQueueTimeout,
				Err:    fmt.Sprintf("granting: queued longer than %s", s.opts.MaxQueueDelay),
			}
			mDecisions.With(string(StatusQueueTimeout)).Inc()
		}
		mQueueTimeouts.Add(int64(len(sub.reqs)))
		s.publish(decidedBatch{subs: []*submission{sub}, ids: sub.ids, decs: decs})
	}
}

// decidedBatch is one decided batch on its way to being published.
type decidedBatch struct {
	sig          string // canonical batch signature, "" when not memoizable
	subs         []*submission
	ids          []string
	decs         []Decision   // decs[i] answers ids[i]
	hits, misses int64        // decision-memo accounting for Stats
	jspans       []trace.Span // grantd.journal spans: record written → durable
}

// publish journals a decided batch, makes its decisions observable, and
// releases its waiters — in that order, so a decision the caller observed
// survives a crash. Under FsyncBatch the batch joins the open commit group
// instead: its dec record is written here, under the mutex, and the
// committer publishes it after the sync that covers it.
func (s *Service) publish(b decidedBatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight = s.inflight[len(b.subs):]
	if s.j != nil {
		// Journal the decided batch before anyone can observe it. A failed
		// append only loses restart latency, not correctness: recovery
		// re-decides the still-journaled submission deterministically, so
		// the decision degrades to a metric instead of an error.
		b.jspans = make([]trace.Span, len(b.subs))
		for bi, sub := range b.subs {
			b.jspans[bi] = s.tracer.StartChild(sub.tc, "grantd.journal")
			b.jspans[bi].SetService("grantd")
		}
		s.j.appendDec(b.sig, b.ids, b.decs) // append counts its own failures
		if s.j.policy == FsyncBatch {
			s.staged = append(s.staged, b)
			s.commitCond.Signal()
			return
		}
	}
	s.publishLocked(b)
	if s.j != nil && s.j.needCheckpoint() {
		s.rotateLocked()
	}
}

// commitLoop is the committer: it closes the open commit group on the
// journal's commit cadence, syncs the journal once for the whole group
// outside the service mutex, and then publishes the group's decisions. The
// (rare) checkpoint comes after the release: the group's dec records are
// already durable and its waiters have no use for the snapshot.
func (s *Service) commitLoop() {
	for {
		s.mu.Lock()
		for len(s.staged) == 0 && !s.drained && !s.killed {
			s.commitCond.Wait()
		}
		if s.killed || len(s.staged) == 0 {
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		s.j.awaitCommitSlot()
		s.mu.Lock()
		if s.killed {
			s.mu.Unlock()
			return
		}
		group := s.staged
		s.staged = nil
		s.mu.Unlock()
		s.j.commit() // counts its own failures
		s.mu.Lock()
		if s.killed {
			s.mu.Unlock()
			return
		}
		for _, b := range group {
			s.publishLocked(b)
		}
		if s.j.needCheckpoint() {
			// Batches staged during the sync are in neither the queue nor the
			// decided table, so the snapshot would miss them: commit them
			// first. The mutex is held, so nothing stages behind them.
			if len(s.staged) > 0 {
				s.j.commit()
				for _, b := range s.staged {
					s.publishLocked(b)
				}
				s.staged = nil
			}
			s.rotateLocked()
		}
		s.mu.Unlock()
	}
}

// publishLocked makes a journaled batch's decisions observable and releases
// its waiters. s.mu must be held.
func (s *Service) publishLocked(b decidedBatch) {
	for bi := range b.jspans {
		b.jspans[bi].Finish()
	}
	off := 0
	for _, sub := range b.subs {
		sub.decs = b.decs[off : off+len(sub.ids)]
		off += len(sub.ids)
	}
	for i, id := range b.ids {
		delete(s.subs, id)
		s.decided[id] = &b.decs[i]
		s.order = append(s.order, id)
	}
	s.stats.countDecided(b.decs)
	s.stats.MemoHits += b.hits
	s.stats.MemoMisses += b.misses
	for len(s.order) > retain {
		delete(s.decided, s.order[0])
		s.order = s.order[1:]
	}
	for _, sub := range b.subs {
		mDecisionSeconds.ObserveSince(sub.enqueued)
		sub.finishRoot()
		close(sub.done)
	}
}

// rotateLocked snapshots the service into a new journal generation. A
// failed rotation is counted by the journal, leaves the current generation
// as the replay source and is retried later, so there is nothing for the
// decider to do with the error. s.mu must be held.
func (s *Service) rotateLocked() {
	_ = s.j.checkpoint(s.snapshotLocked())
}

// snapshotLocked assembles the checkpoint record: the decided retention
// ring plus everything accepted and not yet decided — what the decider is
// working on, then the queue behind it. The caller has emptied the commit
// group. s.mu must be held.
func (s *Service) snapshotLocked() *walCkpt {
	ck := &walCkpt{Seq: s.seq, Stats: s.stats}
	for _, id := range s.order {
		if d, ok := s.decided[id]; ok {
			ck.Decided = append(ck.Decided, walDecided{ID: id, Dec: *d})
		}
	}
	for _, pending := range [][]*submission{s.inflight, s.queue} {
		for _, sub := range pending {
			ck.Pending = append(ck.Pending, walSub{IDs: sub.ids, Reqs: sub.reqs})
		}
	}
	return ck
}

// Kill hard-stops the service WITHOUT draining the queue, closing waiters,
// or checkpointing the journal — the in-process stand-in for a crash, used
// by the recovery tests (pair it with faults.CrashTail for a torn write).
// Pending Wait calls run into their timeout; the journal file is left
// exactly as the last append left it.
func (s *Service) Kill() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	s.killed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
}

// decide runs one coalesced batch through the cache + DecideBatch, stores
// granted contracts, and publishes the outcomes.
func (s *Service) decide(batch []*submission) {
	var reqs []Request
	var ids []string
	// Each submission's queue span ends here (the pop) and its risk pass is
	// one grantd.decide span in its own trace; a coalesced batch shows the
	// shared pass as overlapping spans across the member traces.
	dspans := make([]trace.Span, len(batch))
	for bi, sub := range batch {
		reqs = append(reqs, sub.reqs...)
		ids = append(ids, sub.ids...)
		sub.qsp.Finish()
		dspans[bi] = s.tracer.StartChild(sub.tc, "grantd.decide")
		dspans[bi].SetService("grantd")
	}
	mBatches.Inc()
	mBatchSize.Observe(float64(len(reqs)))

	var decs []Decision
	var err error
	memoizable := s.opts.Approval.PlannedTopology == nil
	var key uint64
	var sig string
	var reqSigs []string
	hit := false
	if memoizable {
		reqSigs = make([]string, len(reqs))
		for i := range reqs {
			reqSigs[i] = reqs[i].Signature()
		}
		sig = batchSig(reqSigs, &s.opts)
		key = batchKey(sig)
		if cached, ok := s.c.lookup(key, sig, reqSigs); ok {
			// lookup returns a fresh slice in this batch's request order;
			// stamping ids below never touches the memoized entry.
			decs = cached
			hit = true
			mMemoHits.Add(int64(len(reqs)))
		}
	}
	if !hit {
		if memoizable {
			mMemoMisses.Add(int64(len(reqs)))
		}
		opts := s.opts
		opts.Approval.Risk.Cache = s.c.resultCache()
		opts.Approval.Risk.Pool = s.c.runnerPool()
		decs, err = DecideBatch(s.topo, reqs, opts)
		if err == nil && memoizable {
			s.c.store(key, sig, reqSigs, append([]Decision(nil), decs...))
		}
	}
	updateHitRatio()

	if err != nil {
		// Whole-pass failure (unknown region slipped past validation,
		// conflicting SLOs, risk engine error): every request in the batch
		// gets an error decision.
		decs = make([]Decision, len(reqs))
		for i := range reqs {
			decs[i] = Decision{NPG: reqs[i].NPG, Status: StatusError, Err: err.Error()}
		}
	}
	for bi := range dspans {
		if err != nil {
			dspans[bi].SetError(err)
		} else if hit {
			dspans[bi].Annotate("memo hit")
		}
		dspans[bi].Finish()
	}

	// Contract push, one grantd.push span per member submission covering its
	// own decisions' sink writes.
	off := 0
	for _, sub := range batch {
		psp := s.tracer.StartChild(sub.tc, "grantd.push")
		psp.SetService("grantd")
		// A remote sink (contractdb.Client) joins the tree: its wire calls
		// become children of this push span. An invalid context (untraced
		// recovered submissions) clears any stale one.
		if ss, ok := s.sink.(interface{ SetSpan(trace.Context) }); ok {
			ss.SetSpan(psp.Context())
		}
		for k := range sub.ids {
			i := off + k
			decs[i].ID = ids[i]
			if s.sink != nil && decs[i].Contract != nil {
				serr := s.sink.Put(*decs[i].Contract)
				if wire.IsTransient(serr) {
					// Put is idempotent per NPG: one retry rides out the
					// connection a sink restart broke.
					serr = s.sink.Put(*decs[i].Contract)
				}
				if serr != nil {
					decs[i].Status = StatusError
					decs[i].Err = fmt.Sprintf("store contract: %v", serr)
					mStoreFails.Inc()
					psp.SetError(serr)
				}
			}
			mDecisions.With(string(decs[i].Status)).Inc()
		}
		psp.Finish()
		off += len(sub.ids)
	}

	b := decidedBatch{sig: sig, subs: batch, ids: ids, decs: decs}
	if hit {
		b.hits = int64(len(reqs))
	} else {
		b.misses = int64(len(reqs))
	}
	s.publish(b)
}
