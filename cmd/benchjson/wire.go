package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"entitlement/internal/kvstore"
	"entitlement/internal/wire"
	schemav1 "entitlement/schema/v1"
)

// BENCH_wire.json: the wire protocol's publish hot path through both
// codecs. The payload codec numbers isolate encode/decode cost; the socket
// numbers are the honest end-to-end round trip (loopback syscalls dominate
// there, so the codec gap narrows — the ≥5x bar is pinned at the codec
// layer by TestPublishCodecSpeedupAndAllocs in internal/wire).

type wireBench struct {
	// Payload codec: one KVPut encode + decode, no envelope, no socket.
	PayloadBinaryNsPerOp     int64 `json:"payload_binary_ns_per_op"`
	PayloadBinaryAllocsPerOp int64 `json:"payload_binary_allocs_per_op"`
	PayloadJSONNsPerOp       int64 `json:"payload_json_ns_per_op"`
	PayloadJSONAllocsPerOp   int64 `json:"payload_json_allocs_per_op"`
	// Socket: a full kvstore Put round trip through a real client and
	// server on loopback, per negotiated codec.
	SocketBinaryNsPerOp     int64   `json:"socket_binary_put_ns_per_op"`
	SocketBinaryAllocsPerOp int64   `json:"socket_binary_put_allocs_per_op"`
	SocketBinaryBytesPerOp  int64   `json:"socket_binary_put_bytes_per_op"`
	SocketJSONNsPerOp       int64   `json:"socket_json_put_ns_per_op"`
	SocketJSONAllocsPerOp   int64   `json:"socket_json_put_allocs_per_op"`
	SocketJSONBytesPerOp    int64   `json:"socket_json_put_bytes_per_op"`
	PayloadSpeedup          float64 `json:"payload_codec_speedup"`
	SocketSpeedup           float64 `json:"socket_put_speedup"`
}

type wireReport struct {
	GeneratedBy string    `json:"generated_by"`
	Workload    host      `json:"workload"`
	Wire        wireBench `json:"wire"`
}

func benchPayloadCodec() (bin, js testing.BenchmarkResult) {
	put := schemav1.KVPut{Key: "rates/cluster-a/web/host-017", Value: 1234.5625, TTLMs: 60000}
	bin = testing.Benchmark(func(b *testing.B) {
		var buf []byte
		var dec schemav1.KVPut
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = put.AppendBinary(buf[:0])
			if err := dec.DecodeBinary(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	js = testing.Benchmark(func(b *testing.B) {
		var dec schemav1.KVPut
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := json.Marshal(&put)
			if err != nil {
				b.Fatal(err)
			}
			if err := json.Unmarshal(buf, &dec); err != nil {
				b.Fatal(err)
			}
		}
	})
	return bin, js
}

func benchSocketPut(codec wire.Codec) (testing.BenchmarkResult, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	srv := kvstore.NewServerOpts(l, kvstore.New(), kvstore.ServerOptions{CompactEvery: -1})
	defer srv.Close()
	c, err := kvstore.DialOpts(srv.Addr(), wire.ClientOptions{Codec: codec})
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer c.Close()
	key := kvstore.RateKey("Ads", "c2_low", "A", "host-017")
	if err := c.Put(key, 1, time.Minute); err != nil {
		return testing.BenchmarkResult{}, err
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Put(key, float64(i), time.Minute); err != nil {
				b.Fatal(err)
			}
		}
	}), nil
}

func runWire(out string) error {
	bin, js := benchPayloadCodec()
	sockBin, err := benchSocketPut(wire.CodecBinary)
	if err != nil {
		return err
	}
	sockJSON, err := benchSocketPut(wire.CodecJSON)
	if err != nil {
		return err
	}
	rep := wireReport{
		GeneratedBy: "make bench-json (cmd/benchjson)",
		Workload:    measuredOn(),
		Wire: wireBench{
			PayloadBinaryNsPerOp:     bin.NsPerOp(),
			PayloadBinaryAllocsPerOp: bin.AllocsPerOp(),
			PayloadJSONNsPerOp:       js.NsPerOp(),
			PayloadJSONAllocsPerOp:   js.AllocsPerOp(),
			SocketBinaryNsPerOp:      sockBin.NsPerOp(),
			SocketBinaryAllocsPerOp:  sockBin.AllocsPerOp(),
			SocketBinaryBytesPerOp:   sockBin.AllocedBytesPerOp(),
			SocketJSONNsPerOp:        sockJSON.NsPerOp(),
			SocketJSONAllocsPerOp:    sockJSON.AllocsPerOp(),
			SocketJSONBytesPerOp:     sockJSON.AllocedBytesPerOp(),
			PayloadSpeedup:           round1(float64(js.NsPerOp()) / float64(bin.NsPerOp())),
			SocketSpeedup:            round1(float64(sockJSON.NsPerOp()) / float64(sockBin.NsPerOp())),
		},
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: payload binary %d ns/op (%d allocs) vs json %d ns/op (%.1fx), socket put binary %d ns/op (%d allocs) vs json %d ns/op (%.1fx)\n",
		out, bin.NsPerOp(), bin.AllocsPerOp(), js.NsPerOp(),
		float64(js.NsPerOp())/float64(bin.NsPerOp()),
		sockBin.NsPerOp(), sockBin.AllocsPerOp(), sockJSON.NsPerOp(),
		float64(sockJSON.NsPerOp())/float64(sockBin.NsPerOp()))
	return nil
}
