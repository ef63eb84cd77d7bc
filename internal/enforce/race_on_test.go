//go:build race

package enforce

// raceEnabled mirrors internal/kvstore: allocation assertions skip under the
// race detector, whose instrumentation allocates on its own.
const raceEnabled = true
