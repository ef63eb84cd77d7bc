// Command kvstore serves the distributed rate-aggregation store the
// enforcement agents publish through (§5.1). The server compacts expired
// rate entries (dead hosts' leftovers) in the background and drops idle or
// byte-dribbling connections.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"entitlement/cmd/internal/cli"
	"entitlement/internal/kvstore"
	"entitlement/internal/wire"
)

func main() { cli.Main("kvstore", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.FlagSet("kvstore", stderr)
	addr := fs.String("addr", "127.0.0.1:7002", "listen address")
	opts := kvstore.ServerOptions{Wire: wire.ServerOptions{Service: "kvstore"}}
	fs.DurationVar(&opts.CompactEvery, "compact-every", 30*time.Second, "expired-entry compaction interval (negative disables)")
	fs.DurationVar(&opts.Wire.ReadIdleTimeout, "idle-timeout", 5*time.Minute, "drop connections idle this long (0 disables)")
	d := cli.DaemonFlags(fs, true)
	if err := cli.Parse(ctx, fs, args); err != nil {
		return err
	}

	if _, err := d.Serve(); err != nil {
		return err
	}
	defer d.Close()
	// The wire Logger emits one span per handled request at debug level,
	// carrying the client-generated request_id — grep the same ID across
	// agent and server logs to follow a call end to end.
	logger := d.Logger()
	opts.Wire.Logger = logger
	return d.Listen(ctx, stdout, "kvstore", *addr, func(l net.Listener) io.Closer {
		srv := kvstore.NewServerOpts(l, kvstore.New(), opts)
		fmt.Fprintf(stdout, "kvstore listening on %s (compact every %s)\n", srv.Addr(), opts.CompactEvery)
		logger.Info("kvstore up", "addr", srv.Addr(), "compact_every", opts.CompactEvery)
		return srv
	})
}
