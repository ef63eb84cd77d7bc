// Command contractdb serves the centralized contract database over TCP
// (§3.2 step 4: "all contracts are stored in a database"). Optionally seeds
// a demo contract so agents can be pointed at it immediately.
//
// With -dir set every put is appended to a write-ahead log in DIR and fsynced
// before it is acknowledged, so the contracts the fleet enforces survive a
// crash or kill -9: a restart on the same directory replays the log and
// prints what it recovered. Without it the database is memory-only and comes
// back empty (grantd re-pushes its contracts only when grantd itself
// restarts).
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"entitlement/cmd/internal/cli"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/wire"
)

func main() { cli.Main("contractdb", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.FlagSet("contractdb", stderr)
	addr := fs.String("addr", "127.0.0.1:7001", "listen address")
	demo := fs.Bool("demo", false, "seed a demo Coldstorage contract")
	dir := fs.String("dir", "", "contract log directory: replayed at startup, every put durable before it is acknowledged (empty keeps contracts in memory only)")
	d := cli.DaemonFlags(fs, true)
	if err := cli.Parse(ctx, fs, args); err != nil {
		return err
	}

	if _, err := d.Serve(); err != nil {
		return err
	}
	defer d.Close()
	logger := d.Logger()

	store := contractdb.NewStore()
	if *dir != "" {
		var err error
		if store, err = contractdb.OpenStore(*dir); err != nil {
			return err
		}
		rec := store.Recovery()
		fmt.Fprintf(stdout, "contractdb recovered %d contracts from %d records, truncated=%v (%s)\n",
			store.Len(), rec.Records, rec.Truncated, *dir)
		logger.Info("contract log recovered", "dir", *dir,
			"contracts", store.Len(), "records", rec.Records, "truncated", rec.Truncated)
	}
	defer func() {
		if err := store.Close(); err != nil {
			fmt.Fprintf(stderr, "contractdb: close log: %v\n", err)
		}
	}()
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
			return fmt.Errorf("demo contract: %w", err)
		}
		fmt.Fprintln(stdout, "seeded demo contract: Coldstorage c4_low TEST egress 1 Tbps")
	}

	return d.Listen(ctx, stdout, "contractdb", *addr, func(l net.Listener) io.Closer {
		// The wire Logger emits one span per handled request at debug level,
		// carrying the client-generated request_id — grep the same ID across
		// agent and server logs to follow a call end to end.
		srv := contractdb.NewServerOpts(l, store, wire.ServerOptions{Logger: logger, Service: "contractdb"})
		fmt.Fprintf(stdout, "contractdb listening on %s\n", srv.Addr())
		logger.Info("contractdb up", "addr", srv.Addr(), "contracts", store.Len())
		return srv
	})
}
