// Package cli is what the commands under cmd/ share: one lifecycle (exit
// codes 0/2/1, a clean stop on SIGINT/SIGTERM only where a command waits),
// one set of observability flags and one serve loop for the long-running
// ones, and one derivation of the backbone and granting.Options for grantd
// and granting.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"entitlement/internal/obs"
	"entitlement/internal/obs/trace"
)

// Run is a command: it parses args with its own flag set, writes to stdout
// and stderr, and returns when its work is done or ctx is cancelled.
type Run func(ctx context.Context, args []string, stdout, stderr io.Writer) error

// ErrUsage is a mistake in the command line, already reported on stderr.
var ErrUsage = errors.New("usage error")

// ErrParseOnly is what Parse returns under a ParseOnly context.
var ErrParseOnly = errors.New("parse only")

type parseOnlyKey struct{}

// Main runs a command and exits with ExitCode, printing the error unless it
// was a usage error. A signal kills the command with the default action,
// except while it waits under Interruptible.
func Main(name string, run Run) {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	code := ExitCode(err)
	if code == 1 {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	os.Exit(code)
}

// ExitCode is 0 on success or -h, 2 on a usage error and 1 on any other.
func ExitCode(err error) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, ErrUsage):
		return 2
	}
	return 1
}

// Interruptible returns ctx, also cancelled by SIGINT or SIGTERM until stop
// is called. A command wraps only the wait that watches ctx in it, so that
// anywhere else a signal still kills the process.
func Interruptible(ctx context.Context) (_ context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
}

// ParseOnly returns a context under which a command parses its command line
// and returns ErrParseOnly instead of running, so a documented command line
// can be checked against the flag set that will read it.
func ParseOnly(ctx context.Context) context.Context {
	return context.WithValue(ctx, parseOnlyKey{}, true)
}

// FlagSet returns an empty flag set that reports its errors and usage on
// stderr and leaves exiting to Main.
func FlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Parse parses args into fs; a bad flag or value, or an argument left over,
// is ErrUsage.
func Parse(ctx context.Context, fs *flag.FlagSet, args []string) error {
	return parse(ctx, fs, args, false)
}

// ParseArgs is Parse for a command that takes positional arguments after
// its flags and checks them itself.
func ParseArgs(ctx context.Context, fs *flag.FlagSet, args []string) error {
	return parse(ctx, fs, args, true)
}

func parse(ctx context.Context, fs *flag.FlagSet, args []string, positional bool) error {
	err := fs.Parse(args)
	if err == nil && !positional && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
	}
	switch {
	case errors.Is(err, flag.ErrHelp):
		return err
	case err != nil:
		return fmt.Errorf("%w: %w", ErrUsage, err)
	case ctx.Value(parseOnlyKey{}) != nil:
		return ErrParseOnly
	}
	return nil
}

// OneOf defines a string flag that accepts only the listed values, so a
// mistyped value is a usage error instead of a silent default.
func OneOf(fs *flag.FlagSet, name, value, usage string, values ...string) *string {
	want := strings.Join(values, " or ")
	fs.Func(name, fmt.Sprintf("%s: %s (default %s)", usage, want, value), func(s string) error {
		if !slices.Contains(values, s) {
			return fmt.Errorf("want %s", want)
		}
		value = s
		return nil
	})
	return &value
}

// Daemon is the observability a long-running command's flags select: a
// logger on the flag set's output, and a -metrics-addr endpoint that always
// serves the retained traces on /debug/traces.
type Daemon struct {
	metricsAddr, logLevel string
	logJSON               bool
	stderr                io.Writer
	logger                *slog.Logger
	metrics               *obs.Server
}

// DaemonFlags registers -metrics-addr on fs and, with logs, -log-level and
// -log-json.
func DaemonFlags(fs *flag.FlagSet, logs bool) *Daemon {
	d := &Daemon{logLevel: "info", stderr: fs.Output()}
	fs.StringVar(&d.metricsAddr, "metrics-addr", "", "serve /metrics, /healthz, /debug/pprof and /debug/traces on this address (empty disables)")
	if logs {
		fs.Func("log-level", "log level: debug, info, warn, error (default info)", func(s string) error {
			_, err := obs.ParseLevel(s)
			d.logLevel = s
			return err
		})
		fs.BoolVar(&d.logJSON, "log-json", false, "emit logs as JSON instead of text")
	}
	return d
}

// Logger is the logger the flags select, writing to the flag set's output.
func (d *Daemon) Logger() *slog.Logger {
	if d.logger == nil {
		d.logger, _ = obs.NewLogger(d.stderr, d.logLevel, d.logJSON) // Parse checked the level
	}
	return d.logger
}

// Serve serves routes and /debug/traces on -metrics-addr, if it is set, and
// returns the address ("" if not); Close stops the endpoint.
func (d *Daemon) Serve(routes ...obs.Route) (string, error) {
	if d.metricsAddr == "" {
		return "", nil
	}
	ms, err := obs.Serve(d.metricsAddr, nil,
		append(routes, obs.Route{Pattern: "/debug/traces", Handler: trace.Default().Handler()})...)
	if err != nil {
		return "", fmt.Errorf("metrics server: %w", err)
	}
	d.metrics = ms
	return ms.Addr(), nil
}

// Close stops the metrics endpoint, if Serve started one.
func (d *Daemon) Close() {
	if d.metrics != nil {
		d.metrics.Close()
	}
}

// Listen is the serve loop of a daemon called name: it listens on addr and
// has serve build the server on the listener and announce it, then waits
// until ctx is done or SIGINT/SIGTERM arrives, announces the shutdown on
// stdout and in the log, and closes the server.
func (d *Daemon) Listen(ctx context.Context, stdout io.Writer, name, addr string, serve func(net.Listener) io.Closer) error {
	if d.metrics != nil { // logged here, so agent and drill, which print it, do not log it
		d.Logger().Info("metrics serving", "addr", d.metrics.Addr())
	}
	ctx, stop := Interruptible(ctx) // before serve announces the daemon
	defer stop()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := serve(l)
	<-ctx.Done()
	stop()
	fmt.Fprintf(stdout, "%s shutting down\n", name)
	d.Logger().Info(name + " shutting down")
	srv.Close()
	return nil
}
