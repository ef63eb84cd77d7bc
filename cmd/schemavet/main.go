// schemavet is the schema compatibility gate (`make vet-schema`): it
// re-derives a fingerprint for every wire schema from the live Go types and
// compares them against the committed schema/v1/schema.lock. A shape that
// changed without a version bump fails the check — the CI lint step runs it
// on every push, so a wire message cannot drift silently.
//
//	schemavet           check the lock (exit 1 on any drift)
//	schemavet -update   rewrite the lock from the live schemas
//
// The lock file embeds each schema's canonical rendering, so regenerating
// it for a deliberately compatible change produces a reviewable diff of
// exactly what changed on the wire. See the compatibility policy in
// schema/v1 and DESIGN.md §14.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"entitlement/cmd/internal/cli"

	"entitlement/internal/contractdb"
	"entitlement/internal/granting"
	schemav1 "entitlement/schema/v1"
)

// allDefs aggregates every plane's schemas: the envelope/kvstore/contractdb
// shapes owned by schema/v1 plus the domain-embedding shapes the granting
// and contractdb packages register themselves (they import wire, so they
// cannot live inside schema/v1).
func allDefs() []schemav1.Def {
	defs := schemav1.Defs()
	defs = append(defs, contractdb.SchemaDefs()...)
	defs = append(defs, granting.SchemaDefs()...)
	return defs
}

func main() { cli.Main("schemavet", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.FlagSet("schemavet", stderr)
	update := fs.Bool("update", false, "rewrite the lock file from the live schemas")
	lockPath := fs.String("lock", "schema/v1/schema.lock", "path to the schema lock file")
	if err := cli.Parse(ctx, fs, args); err != nil {
		return err
	}

	live := schemav1.Entries(allDefs())
	if *update {
		if err := os.WriteFile(*lockPath, []byte(schemav1.FormatLock(live)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "schemavet: wrote %s (%d schemas)\n", *lockPath, len(live))
		return nil
	}

	data, err := os.ReadFile(*lockPath)
	if err != nil {
		return fmt.Errorf("%v\nrun `make vet-schema-update` to create the lock file", err)
	}
	problems := schemav1.Check(live, schemav1.ParseLock(string(data)))
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(stderr, "schemavet:", p)
		}
		return errors.New("wire schemas are versioned contracts (DESIGN.md §14): compatible changes regenerate the lock with `make vet-schema-update`; breaking changes need a new schema version")
	}
	fmt.Fprintf(stdout, "schemavet: %d schemas match %s\n", len(live), *lockPath)
	return nil
}
