// Command contractdb serves the centralized contract database over TCP
// (§3.2 step 4: "all contracts are stored in a database"). Optionally seeds
// a demo contract so agents can be pointed at it immediately.
//
// Usage:
//
//	contractdb [-addr HOST:PORT] [-dir DIR] [-demo]
//
// With -dir set every put is appended to a write-ahead log in DIR and fsynced
// before it is acknowledged, so the contracts the fleet enforces survive a
// crash or kill -9: a restart on the same directory replays the log and
// prints what it recovered. Without it the database is memory-only and comes
// back empty (grantd re-pushes its contracts only when grantd itself
// restarts).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/obs"
	"entitlement/internal/obs/trace"
	"entitlement/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7001", "listen address")
	demo := flag.Bool("demo", false, "seed a demo Coldstorage contract")
	dir := flag.String("dir", "", "contract log directory: replayed at startup, every put durable before it is acknowledged (empty keeps contracts in memory only)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty disables)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "contractdb: %v\n", err)
		os.Exit(1)
	}
	if *metricsAddr != "" {
		ms, err := obs.Serve(*metricsAddr, nil,
			obs.Route{Pattern: "/debug/traces", Handler: trace.Default().Handler()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "contractdb: metrics server: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		logger.Info("metrics serving", "addr", ms.Addr())
	}

	store := contractdb.NewStore()
	if *dir != "" {
		if store, err = contractdb.OpenStore(*dir); err != nil {
			fmt.Fprintf(os.Stderr, "contractdb: %v\n", err)
			os.Exit(1)
		}
		rec := store.Recovery()
		fmt.Printf("contractdb recovered %d contracts from %d records, truncated=%v (%s)\n",
			store.Len(), rec.Records, rec.Truncated, *dir)
		logger.Info("contract log recovered", "dir", *dir,
			"contracts", store.Len(), "records", rec.Records, "truncated", rec.Truncated)
	}
	if *demo {
		now := time.Now().UTC()
		err := store.Put(contract.Contract{
			NPG: "Coldstorage", SLO: 0.999, Approved: true,
			Entitlements: []contract.Entitlement{{
				NPG: "Coldstorage", Class: contract.C4Low, Region: "TEST",
				Direction: contract.Egress, Rate: 1e12,
				Start: now.Add(-time.Hour), End: now.Add(90 * 24 * time.Hour),
			}},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "contractdb: demo contract: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("seeded demo contract: Coldstorage c4_low TEST egress 1 Tbps")
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "contractdb: %v\n", err)
		os.Exit(1)
	}
	// The wire Logger emits one span per handled request at debug level,
	// carrying the client-generated request_id — grep the same ID across
	// agent and server logs to follow a call end to end.
	srv := contractdb.NewServerOpts(l, store, wire.ServerOptions{Logger: logger, Service: "contractdb"})
	fmt.Printf("contractdb listening on %s\n", srv.Addr())
	logger.Info("contractdb up", "addr", srv.Addr(), "contracts", store.Len())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("contractdb shutting down")
	logger.Info("contractdb shutting down")
	srv.Close()
	if err := store.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "contractdb: close log: %v\n", err)
	}
}
