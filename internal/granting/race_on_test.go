//go:build race

package granting

// raceEnabled mirrors internal/wire: allocation assertions skip under the
// race detector, which makes sync.Pool (encoding/json's buffers) drop at
// random.
const raceEnabled = true
