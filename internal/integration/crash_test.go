package integration

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/granting"
	"entitlement/internal/hose"
	"entitlement/internal/kvstore"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

// buildDaemon compiles one of the real daemon binaries (cmd/<name>).
func buildDaemon(t *testing.T, name string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH; cannot build %s subprocess", name)
	}
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command(goBin, "build", "-o", bin, "entitlement/cmd/"+name)
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	return bin
}

// startDaemon launches a daemon (grantd or contractdb; bin is named after
// it) and parses its listen address — and, on a restart over durable state,
// the recovery line — from stdout.
func startDaemon(t *testing.T, bin string, args ...string) (cmd *exec.Cmd, addr string, recovered string) {
	t.Helper()
	name := filepath.Base(bin)
	cmd = exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	lines := make(chan string, 8)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(time.Minute)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("%s exited before listening\nstderr:\n%s", name, stderr.String())
			}
			if strings.HasPrefix(line, name+" recovered ") {
				recovered = line
				continue
			}
			if _, err := fmt.Sscanf(line, name+" listening on %s ", &addr); err == nil {
				// Keep draining so the subprocess never blocks on stdout.
				go func() {
					for range lines {
					}
				}()
				return cmd, addr, recovered
			}
		case <-deadline:
			t.Fatalf("%s did not report a listen address\nstderr:\n%s", name, stderr.String())
		}
	}
}

// TestGrantdCrashRecoverySockets is the ISSUE 7 end-to-end durability run:
// a real grantd process with a write-ahead journal and an external contract
// database is SIGKILLed mid-storm, restarted on the same journal directory,
// and must (a) serve every pre-kill decision byte-identically, (b) decide
// every in-flight submission — -fsync always makes accepted submissions
// durable — and (c) leave enforcement agents converged on the granted rate.
func TestGrantdCrashRecoverySockets(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test is not a -short test")
	}
	bin := buildDaemon(t, "grantd")

	// The contract database and rate store outlive grantd, like production.
	store := contractdb.NewStore()
	dbL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dbSrv := contractdb.NewServer(dbL, store)
	defer dbSrv.Close()
	kvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kvSrv := kvstore.NewServer(kvL, kvstore.New())
	defer kvSrv.Close()

	walDir := filepath.Join(t.TempDir(), "wal")
	grantdArgs := func() []string {
		return []string{
			"-addr", "127.0.0.1:0", "-figure6",
			"-contractdb", dbSrv.Addr(),
			"-wal-dir", walDir, "-fsync", "always",
			// One risk pass per request with a heavy scenario count, so
			// decisions stream out slowly and the kill lands mid-stream.
			"-max-batch", "1", "-scenarios", "4000", "-tms", "3",
		}
	}
	proc, addr, _ := startDaemon(t, bin, grantdArgs()...)
	client, err := granting.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	// A storm of single-hose submissions across distinct flow sets. The
	// first is the one the enforcement agents watch.
	regions := []string{"A", "B", "C", "D", "E"}
	var ids []string
	for i := 0; i < 10; i++ {
		id, err := client.Submit(granting.Request{
			NPG: contract.NPG(fmt.Sprintf("Web%d", i)), StartUnix: periodStart.Unix(),
			Hoses: []hose.Request{{
				Class: contract.C2Low, Region: topology.Region(regions[i%len(regions)]),
				Direction: contract.Egress, Rate: float64(10+i) * 1e9,
			}},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}

	// Wait for at least one decision, then pull the trigger.
	preKill := make(map[string][]byte)
	for deadline := time.Now().Add(time.Minute); len(preKill) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no decision landed within a minute")
		}
		for _, id := range ids {
			if state, d, err := client.Status(id); err == nil && state == "decided" {
				preKill[id], _ = json.Marshal(d)
			}
		}
		if len(preKill) == 0 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	client.Close()
	if err := proc.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	proc.Wait()
	if len(preKill) == len(ids) {
		t.Logf("note: all %d requests decided before the kill; recovery still verified", len(ids))
	}

	// Restart on the same journal directory.
	_, addr2, recovered := startDaemon(t, bin, grantdArgs()...)
	if recovered == "" {
		t.Error("restarted grantd printed no recovery line")
	}
	client2, err := granting.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()

	// (a) Pre-kill decisions are byte-identical; (b) with -fsync always no
	// submission may be lost — every id decides after recovery.
	for _, id := range ids {
		want, decidedPreKill := preKill[id]
		if decidedPreKill {
			state, d, err := client2.Status(id)
			if err != nil || state != "decided" {
				t.Fatalf("decided id %s after restart: state %q err %v (%s)", id, state, err, recovered)
			}
			got, _ := json.Marshal(d)
			if !bytes.Equal(got, want) {
				t.Errorf("id %s not byte-identical across the crash:\nwant %s\ngot  %s", id, want, got)
			}
			continue
		}
		d, err := client2.Decide(id, 2*time.Minute)
		if err != nil {
			t.Fatalf("in-flight id %s lost to the crash: %v (%s)", id, err, recovered)
		}
		if d.Status != granting.StatusApproved {
			t.Errorf("re-decided id %s: %s (%s)", id, d.Status, d.Err)
		}
	}

	// (c) Agents dialing the surviving control plane converge on the grant.
	c0, ok := store.Get("Web0")
	if !ok {
		t.Fatal("Web0 contract missing from the database after recovery")
	}
	granted := c0.Entitlements[0].Rate
	dbc, err := contractdb.Dial(dbSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dbc.Close()
	kvc, err := kvstore.Dial(kvSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer kvc.Close()
	agent, err := enforce.NewAgent(enforce.AgentConfig{
		Host: "crash-host-0", NPG: "Web0", Class: contract.C2Low, Region: "A",
		DB: dbc, Rates: kvc, Meter: enforce.NewStateful(),
		Prog: bpf.NewProgram(bpf.NewMap()), Policy: enforce.HostBased,
		RateTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := periodStart.Add(24 * time.Hour)
	enforced := false
	var got float64
	for cycle := 0; cycle < 2 && !enforced; cycle++ {
		now = now.Add(10 * time.Second)
		rep, err := agent.Cycle(now, 5e9, 5e9)
		if err != nil {
			t.Fatal(err)
		}
		enforced, got = rep.Enforced, rep.EntitledRate
	}
	if !enforced {
		t.Fatal("agent did not reconverge on the recovered grant within 2 cycles")
	}
	if got != granted {
		t.Errorf("agent enforces %v, recovered grant says %v", got, granted)
	}
}

// TestContractdbCrashRecoverySockets kills the other half of the control
// plane. The second-generation enforcement plane has no controller (§5):
// every agent reads the contract database itself, every cycle, so what
// contractdb remembers IS the fleet's entitlement. A real contractdb process
// on a write-ahead log directory takes grantd's pushes and a stream of direct
// puts while three agents cycle against it, is SIGKILLed mid-storm, and is
// restarted on the same directory and address. Then:
//
//   - every put acknowledged before the kill is served after it, byte for
//     byte, and the put in flight at the kill is either absent or whole;
//   - no agent ever fails open or runs an un-enforced cycle: while contractdb
//     is down cycles are degraded (fail-static, within the staleness budget),
//     and afterwards enforced from fresh answers at the same entitled rate;
//   - grantd is NOT restarted — which is the point: grantd re-pushes contracts
//     only when grantd itself starts, so a contractdb that forgets can only be
//     repaired by restarting something that did not fail.
//
// Against the parent commit's binary (`contractdb -snapshot FILE`, written at
// clean shutdown only) this test fails: the restarted database is empty, the
// acknowledged puts are gone, and every agent's first fresh answer is "no
// contract", which deletes its marking action on the spot.
func TestContractdbCrashRecoverySockets(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test is not a -short test")
	}
	dbBin, grantdBin := buildDaemon(t, "contractdb"), buildDaemon(t, "grantd")

	// Reserve the database's port up front: it must come back on the address
	// grantd and the agents already hold.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dbAddr := l.Addr().String()
	l.Close()
	dbArgs := []string{"-addr", dbAddr, "-dir", filepath.Join(t.TempDir(), "contracts")}
	dbProc, _, _ := startDaemon(t, dbBin, dbArgs...)

	kvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kvSrv := kvstore.NewServer(kvL, kvstore.New())
	defer kvSrv.Close()
	grantd, grantdAddr, _ := startDaemon(t, grantdBin,
		"-addr", "127.0.0.1:0", "-figure6", "-contractdb", dbAddr,
		"-wal-dir", filepath.Join(t.TempDir(), "wal"), "-fsync", "always",
		"-max-batch", "1", "-scenarios", "4000", "-tms", "3")
	client, err := granting.Dial(grantdAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Re-dial promptly: the outage this test injects is a second long.
	quick := wire.ClientOptions{MinBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
	dial := func() *contractdb.Client {
		c, err := contractdb.DialOpts(dbAddr, quick)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	dbc := dial()
	served := func() map[contract.NPG][]byte {
		t.Helper()
		var list []contract.Contract
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if list, err = dbc.List(); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("contractdb does not answer: %v", err)
			}
		}
		out := make(map[contract.NPG][]byte, len(list))
		for _, c := range list {
			out[c.NPG], _ = json.Marshal(c)
		}
		return out
	}
	webRequest := func(npg string, i int) granting.Request {
		regions := []string{"A", "B", "C", "D", "E"}
		return granting.Request{
			NPG: contract.NPG(npg), StartUnix: periodStart.Unix(),
			Hoses: []hose.Request{{
				Class: contract.C2Low, Region: topology.Region(regions[i%len(regions)]),
				Direction: contract.Egress, Rate: float64(10+i) * 1e9,
			}},
		}
	}

	// The contract the agents enforce reaches the database the way every
	// contract does: granted by grantd, pushed over the wire.
	id0, err := client.Submit(webRequest("Web0", 0))
	if err != nil {
		t.Fatal(err)
	}
	d0, err := client.Decide(id0, 2*time.Minute)
	if err != nil || d0.Status != granting.StatusApproved || d0.Contract == nil {
		t.Fatalf("Web0: %+v, %v", d0, err)
	}
	granted := d0.Contract.Entitlements[0].Rate
	if _, ok := served()["Web0"]; !ok {
		t.Fatal("grantd's push of Web0 did not reach contractdb")
	}

	// Three agents cycle throughout, on a synthetic clock that moves 100 ms
	// a cycle: the outage must fit in the staleness budget many times over.
	type agentLog struct {
		mu      sync.Mutex
		reports []enforce.CycleReport
	}
	logs := make([]*agentLog, 3)
	stopAgents := make(chan struct{})
	var agents sync.WaitGroup
	for i := range logs {
		kvc, err := kvstore.Dial(kvSrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer kvc.Close()
		agent, err := enforce.NewAgent(enforce.AgentConfig{
			Host: fmt.Sprintf("crash-host-%d", i), NPG: "Web0", Class: contract.C2Low, Region: "A",
			DB: dial(), Rates: kvc, Meter: enforce.NewStateful(),
			Prog: bpf.NewProgram(bpf.NewMap()), Policy: enforce.HostBased,
			RateTTL: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		lg := &agentLog{}
		logs[i] = lg
		agents.Add(1)
		go func() {
			defer agents.Done()
			now := periodStart.Add(24 * time.Hour)
			for {
				select {
				case <-stopAgents:
					return
				case <-time.After(5 * time.Millisecond):
				}
				now = now.Add(100 * time.Millisecond)
				rep, err := agent.Cycle(now, 5e9, 5e9)
				if err != nil {
					t.Errorf("agent cycle: %v", err)
					return
				}
				lg.mu.Lock()
				lg.reports = append(lg.reports, rep)
				lg.mu.Unlock()
			}
		}()
	}
	defer agents.Wait()
	stopOnce := sync.OnceFunc(func() { close(stopAgents) })
	defer stopOnce()
	// eachAgent waits until every agent has logged a cycle cond accepts among
	// those it ran after the call.
	eachAgent := func(what string, cond func(enforce.CycleReport) bool) {
		t.Helper()
		for _, lg := range logs {
			lg.mu.Lock()
			from := len(lg.reports)
			lg.mu.Unlock()
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				lg.mu.Lock()
				ok := false
				for _, rep := range lg.reports[from:] {
					ok = ok || cond(rep)
				}
				lg.mu.Unlock()
				if ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("an agent never reported %s", what)
				}
			}
		}
	}
	eachAgent("an enforced cycle", func(r enforce.CycleReport) bool { return r.Enforced && !r.Degraded })

	// The storm: grantd decides nine more requests (each pushed on decision),
	// and a direct writer streams puts, noting every acknowledgement.
	for i := 1; i < 10; i++ {
		if _, err := client.Submit(webRequest(fmt.Sprintf("Web%d", i), i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	var (
		ackMu    sync.Mutex
		acked    = make(map[contract.NPG][]byte)
		inflight contract.Contract
		writer   = make(chan struct{})
		putc     = dial()
	)
	go func() {
		defer close(writer)
		for i := 0; ; i++ {
			npg := contract.NPG(fmt.Sprintf("Storm%04d", i))
			c := contract.Contract{NPG: npg, SLO: 0.999, Approved: true, Entitlements: []contract.Entitlement{{
				NPG: npg, Class: contract.C2Low, Region: "B", Direction: contract.Egress, Rate: float64(1+i) * 1e9,
				Start: periodStart, End: periodStart.Add(90 * 24 * time.Hour),
			}}}
			if err := putc.Put(c); err != nil {
				inflight = c // the kill; nothing was acknowledged
				return
			}
			ackMu.Lock()
			acked[npg], _ = json.Marshal(c)
			ackMu.Unlock()
		}
	}()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		ackMu.Lock()
		n := len(acked)
		ackMu.Unlock()
		if n >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d puts acknowledged within a minute", n)
		}
	}
	if err := dbProc.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	dbProc.Wait()
	<-writer

	// Down: every agent rides it out on its last-known-good contract.
	eachAgent("a degraded cycle during the outage", func(r enforce.CycleReport) bool { return r.Degraded })

	// Back, on the same directory and address.
	_, _, recovered := startDaemon(t, dbBin, dbArgs...)
	if recovered == "" {
		t.Error("restarted contractdb printed no recovery line")
	}
	after := served()
	for npg, want := range acked {
		if got, ok := after[npg]; !ok {
			t.Errorf("acknowledged put %s lost in the crash (%s)", npg, recovered)
		} else if !bytes.Equal(got, want) {
			t.Errorf("acknowledged put %s altered by the crash:\nwant %s\ngot  %s", npg, want, got)
		}
	}
	if got, ok := after[inflight.NPG]; ok {
		if want, _ := json.Marshal(inflight); !bytes.Equal(got, want) {
			t.Errorf("the put in flight at the kill is neither absent nor whole:\nwant %s\ngot  %s", want, got)
		}
	}
	t.Logf("%d puts acknowledged before the kill; in-flight %s survived=%v; %s", len(acked), inflight.NPG, after[inflight.NPG] != nil, recovered)

	// The agents pick up where they were, from fresh answers.
	eachAgent("a fresh enforced cycle after the restart", func(r enforce.CycleReport) bool { return r.Enforced && !r.Degraded })
	stopOnce()
	agents.Wait()
	for i, lg := range logs {
		degraded := 0
		for n, rep := range lg.reports {
			if rep.FailedOpen || !rep.Enforced || rep.EntitledRate != granted {
				t.Fatalf("agent %d cycle %d of %d left enforcement: %+v (granted %v)", i, n, len(lg.reports), rep, granted)
			}
			if rep.Degraded {
				degraded++
			}
		}
		t.Logf("agent %d: %d cycles, %d degraded, none un-enforced", i, len(lg.reports), degraded)
	}

	// grantd is the process it always was, and its pushes land again.
	if err := grantd.Process.Signal(syscall.Signal(0)); err != nil {
		t.Fatalf("grantd did not survive contractdb's crash: %v", err)
	}
	// Its first push finds the connection the kill broke; grantd retries the
	// transient failure itself, so the one submit comes back approved.
	idN, err := client.Submit(webRequest("WebAfter", 3))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := client.Decide(idN, 2*time.Minute); err != nil || d.Status != granting.StatusApproved {
		t.Fatalf("grant after contractdb's restart: %+v, %v", d, err)
	}
	if _, ok := served()["WebAfter"]; !ok {
		t.Error("grantd's push after contractdb's restart did not land")
	}
}
