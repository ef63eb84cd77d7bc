package main

import (
	"fmt"
	"net"
	"os"

	"entitlement/internal/approval"
	"entitlement/internal/contractdb"
	"entitlement/internal/granting"
	"entitlement/internal/kvstore"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

// clientOpts is what cmd/agent and cmd/grantd dial with by default: the
// binary codec, everything else at the wire layer's defaults.
var clientOpts = wire.ClientOptions{Codec: wire.CodecBinary}

// grantdOptions is cmd/grantd at its flag defaults: 100 scenarios, 4
// representative TMs, SLO 0.999, MaxBatch 16, seeds derived from -seed 1. An
// empty walDir keeps the service in memory; an empty fsync is the journal's
// default, one fsync per decided batch. CheckpointBytes stays at its default
// of 1 MiB, which a full retention ring of four-hose decisions (1.5 MB as a
// snapshot) exceeds: grantd then checkpoints after every decision, and the
// grant workloads measure exactly that (README.md, "Findings").
func grantdOptions(walDir string, fsync granting.FsyncPolicy) granting.Options {
	return granting.Options{
		Approval: approval.Options{
			RepresentativeTMs: 4,
			DefaultSLO:        0.999,
			Risk:              risk.Options{Scenarios: 100, Seed: 3},
			Seed:              4,
		},
		MaxBatch: 16,
		WAL:      granting.WALOptions{Dir: walDir, Fsync: fsync},
	}
}

// stack is one workload's private fleet: grantd with a journal, contractdb
// and kvstore, each behind its own loopback listener, grantd pushing into
// contractdb over a dialed client. Nothing is shared between stacks — a
// kvstore still holding another run's unexpired keys would slow every
// aggregate in this one.
type stack struct {
	topo *topology.Topology
	dir  string

	kv  *kvstore.Store
	db  *contractdb.Store
	svc *granting.Service

	kvSrv    *kvstore.Server
	dbSrv    *contractdb.Server
	grantSrv *granting.Server
	sink     *contractdb.Client
}

// newStack stands the servers up with the journal under tmp. sinkTrace, when
// set, times grantd's contract pushes.
func newStack(tmp string, sinkTrace *tracer) (*stack, error) {
	topo, err := topology.Backbone(topology.DefaultBackboneOptions())
	if err != nil {
		return nil, err
	}
	s := &stack{topo: topo, kv: kvstore.New(), db: contractdb.NewStore()}
	if s.dir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
		return nil, err
	}
	var ls [3]net.Listener
	for i := range ls {
		if ls[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, l := range ls[:i] {
				l.Close()
			}
			os.RemoveAll(s.dir)
			return nil, err
		}
	}
	s.kvSrv = kvstore.NewServer(ls[0], s.kv)
	s.dbSrv = contractdb.NewServer(ls[1], s.db)
	if s.sink, err = contractdb.DialOpts(s.dbSrv.Addr(), clientOpts); err == nil {
		var sink granting.Sink = s.sink
		if sinkTrace != nil {
			sink = tracedSink{s.sink, sinkTrace}
		}
		s.svc, err = granting.OpenService(topo, sink, grantdOptions(s.dir, ""))
	}
	if err != nil {
		ls[2].Close()
		s.Close()
		return nil, fmt.Errorf("stand up fleet: %w", err)
	}
	s.grantSrv = granting.NewServer(ls[2], s.svc)
	return s, nil
}

// Close stops every server and removes the journal. Each Close waits for the
// goroutines it owns, so a closed stack leaves none behind.
func (s *stack) Close() {
	if s.grantSrv != nil {
		s.grantSrv.Close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.sink != nil {
		s.sink.Close()
	}
	s.dbSrv.Close()
	s.kvSrv.Close()
	os.RemoveAll(s.dir)
}
