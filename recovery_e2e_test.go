package manimal_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"manimal"
	"manimal/internal/faultinject"
	"manimal/internal/journal"
	"manimal/internal/workload"
)

// crashCountProgram is deterministic per input: with one reducer its
// output file is byte-identical run over run, which is what lets the
// recovery test compare files instead of multisets.
const crashCountProgram = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("threshold") {
		ctx.Emit(v.Int("rank") % 10, 1)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	count := 0
	for values.Next() {
		count = count + values.Int()
	}
	ctx.Emit(key, count)
}
`

func crashSpec(name, data, out string, delay time.Duration) manimal.JobSpec {
	prog, err := manimal.ParseProgram("count.go", crashCountProgram)
	if err != nil {
		panic(err)
	}
	return manimal.JobSpec{
		Name:         name,
		Inputs:       []manimal.InputSpec{{Path: data, Program: prog}},
		OutputPath:   out,
		Conf:         manimal.Conf{"threshold": manimal.Int(5000)},
		NumReducers:  1, // single reducer => byte-identical output
		StartupDelay: delay,
	}
}

// crashHelperMain is the subprocess body of TestCrashRecoveryEndToEnd: a
// coordinator that accepts three jobs — one canceled, one queued behind a
// long admission delay, one running — and is then killed by the injected
// kill point (MANIMAL_FAULTS, set by the parent). It never returns.
func crashHelperMain() {
	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "crash helper:", err)
			os.Exit(2)
		}
	}
	dir := os.Getenv("MANIMAL_CRASH_DIR")
	if dir == "" {
		die(errors.New("MANIMAL_CRASH_DIR not set"))
	}
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{Journal: true})
	die(err)
	data := filepath.Join(dir, "webpages.rec")
	ctx := context.Background()

	// j00000001: canceled before it ever runs — recovery must leave it be.
	hc, err := sys.SubmitAsync(ctx, crashSpec("crash-canceled", data, filepath.Join(dir, "c.kv"), time.Minute))
	die(err)
	hc.Cancel()
	hc.Wait() // the canceled state is journaled before Wait returns

	// j00000002: accepted but still queued (admission delay) at crash time.
	_, err = sys.SubmitAsync(ctx, crashSpec("crash-queued", data, filepath.Join(dir, "q.kv"), time.Minute))
	die(err)

	// j00000003: runs immediately; its first map (or reduce, per regime)
	// task attempt trips the kill point and the process exits hard.
	hk, err := sys.SubmitAsync(ctx, crashSpec("crash-killed", data, filepath.Join(dir, "k.kv"), 0))
	die(err)
	hk.Wait()
	fmt.Fprintln(os.Stderr, "crash helper: kill point never fired")
	os.Exit(3)
}

// TestCrashRecoveryEndToEnd kills a coordinator mid-job with the
// faultinject kill point (in a subprocess — a real os.Exit, no deferred
// cleanup), then recovers from the journal in this process and requires:
// interrupted jobs re-run to byte-identical outputs, the canceled job
// stays canceled, and no orphaned scratch or partial-output files remain.
//
// The torn-tail regime kills the coordinator between the append and the
// sync of the running job's END record: the job's output is committed and
// cached, but its terminal state was never acknowledged. The parent then
// cuts the journal mid-frame — what a power loss leaves of an unsynced
// append — so recovery must ignore the torn record, re-run the job (served
// from the result cache), and journal exactly one terminal state for it.
//
// The commit regime kills it inside the running job's output commit,
// between the temp file's fsync and the rename: k.kv.tmp-* exists, complete
// and durable, when the coordinator dies, and recovery must sweep it.
//
// MANIMAL_CRASH_FAULTS overrides the child's fault regime (CI runs the
// mid-map, mid-reduce, torn-tail and mid-commit kills).
func TestCrashRecoveryEndToEnd(t *testing.T) {
	if os.Getenv("MANIMAL_CRASH_HELPER") == "1" {
		crashHelperMain()
	}
	if os.Getenv("MANIMAL_FAULTS") != "" {
		t.Skip("needs a fault-free parent process (the kill regime is for the subprocess only)")
	}
	regimes := []string{"kill=1.0@map;seed=7", tornTailRegime, "kill=1.0@commit:k.kv;seed=7"}
	if r := os.Getenv("MANIMAL_CRASH_FAULTS"); r != "" {
		regimes = []string{r}
	}
	for _, regime := range regimes {
		regime := regime
		t.Run(regime, func(t *testing.T) { crashAndRecover(t, regime) })
	}
}

const tornTailRegime = "kill=1.0@journal:j00000003.end;seed=7"

func crashAndRecover(t *testing.T, regime string) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(21).WriteWebPages(data, 3000, 64); err != nil {
		t.Fatal(err)
	}

	// Baselines from an undisturbed system: what q.kv and k.kv must be
	// byte-for-byte once recovery re-runs them.
	base, err := manimal.NewSystemWith(filepath.Join(dir, "baseline-sys"), manimal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseOut := filepath.Join(dir, "baseline.kv")
	if _, err := base.Submit(crashSpec("baseline", data, baseOut, 0)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(baseOut)
	if err != nil || len(want) == 0 {
		t.Fatalf("baseline output: %d bytes, %v", len(want), err)
	}

	// The crash: re-run this test in a subprocess under a kill regime.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestCrashRecoveryEndToEnd$")
	cmd.Env = append(os.Environ(),
		"MANIMAL_CRASH_HELPER=1",
		"MANIMAL_CRASH_DIR="+dir,
		"MANIMAL_FAULTS="+regime,
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != faultinject.KillExitCode {
		t.Fatalf("child exited %v, want status %d (injected kill)\nchild stderr:\n%s",
			err, faultinject.KillExitCode, stderr.String())
	}

	sysDir := filepath.Join(dir, "sys")
	if regime == tornTailRegime {
		log := filepath.Join(sysDir, "journal", "journal.log")
		st, err := os.Stat(log)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(log, st.Size()-5); err != nil {
			t.Fatal(err)
		}
	}

	// Recovery: a fresh coordinator over the same system directory.
	sys, err := manimal.NewSystemWith(sysDir, manimal.Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := sys.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d jobs, want 2 (queued + killed): %+v", len(recovered), recovered)
	}
	for i, wantID := range []string{"j00000002", "j00000003"} {
		r := recovered[i]
		if r.ID != wantID || r.Err != nil || r.Handle == nil {
			t.Fatalf("recovered[%d] = {ID:%s Err:%v Handle:%v}, want %s resubmitted", i, r.ID, r.Err, r.Handle, wantID)
		}
		if _, err := r.Handle.Wait(); err != nil {
			t.Fatalf("recovered job %s: %v", r.ID, err)
		}
	}
	if kind := recovered[1].Handle.Inputs()[0].Plan.Kind; regime == tornTailRegime && kind != manimal.PlanCached {
		t.Errorf("job whose output had committed before the crash re-ran with plan %s, want the result cache", kind)
	}

	// Byte-identical outputs, no orphans, a quiesced journal, and the
	// canceled job untouched.
	for _, out := range []string{"q.kv", "k.kv"} {
		got, err := os.ReadFile(filepath.Join(dir, out))
		if err != nil {
			t.Fatalf("recovered output %s: %v", out, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("recovered %s differs from baseline: %d vs %d bytes", out, len(got), len(want))
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "c.kv")); !os.IsNotExist(err) {
		t.Errorf("canceled job's output exists (stat err = %v)", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(tmps) != 0 {
		t.Errorf("orphaned partial-output files: %v", tmps)
	}
	if des, err := os.ReadDir(filepath.Join(sysDir, "work")); err != nil || len(des) != 0 {
		names := make([]string, 0, len(des))
		for _, de := range des {
			names = append(names, de.Name())
		}
		t.Errorf("orphaned scratch space: %v (err %v)", names, err)
	}
	// Eight records: the canceled job's submit and end; submit, mark and
	// end for each recovered job. A ninth would be a duplicate terminal
	// state.
	st := sys.Journal().Stats()
	if st.Jobs != 3 || st.Incomplete != 0 || st.Records != 8 {
		t.Fatalf("journal after recovery = %+v, want 3 jobs / 0 incomplete / 8 records", st)
	}
	if e, ok, err := sys.Journal().Lookup("j00000001"); err != nil || !ok || e.State() != journal.StateCanceled {
		t.Fatalf("canceled job journal state = %s (ok %v, err %v), want canceled", e.State(), ok, err)
	}
	for _, id := range []string{"j00000002", "j00000003"} {
		e, ok, err := sys.Journal().Lookup(id)
		if err != nil || !ok || e.State() != journal.StateDone {
			t.Fatalf("recovered job %s journal state = %s (ok %v, err %v)", id, e.State(), ok, err)
		}
		if e.Mark == nil {
			t.Errorf("recovered job %s has no interruption mark", id)
		}
	}
}

// TestRefusedSubmissionIsNotReplayed: a submission refused AFTER its
// journal record was written (here its admission fails) is journaled as
// failed — the caller was told "refused", so no later recovery may run the
// job behind its back.
func TestRefusedSubmissionIsNotReplayed(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(22).WriteWebPages(data, 200, 32); err != nil {
		t.Fatal(err)
	}
	sysDir := filepath.Join(dir, "sys")
	sys, err := manimal.NewSystemWith(sysDir, manimal.Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	spec := crashSpec("refused", data, filepath.Join(dir, "out.kv"), 0)
	faultinject.Set(faultinject.MustParse("admit=1.0@refused;seed=1"))
	_, err = sys.SubmitAsync(context.Background(), spec)
	faultinject.Reset()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("submission whose admission fails: err = %v; want the injected refusal", err)
	}
	if st := sys.Journal().Stats(); st.Jobs != 1 || st.Incomplete != 0 {
		t.Fatalf("journal after the refusal = %+v, want the one job terminal", st)
	}
	if e, ok, err := sys.Journal().Lookup("j00000001"); err != nil || !ok || e.State() != journal.StateFailed {
		t.Fatalf("refused job's journal state = %s (ok %v, err %v), want failed", e.State(), ok, err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys, err = manimal.NewSystemWith(sysDir, manimal.Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if recovered, err := sys.Recover(context.Background()); err != nil || len(recovered) != 0 {
		t.Fatalf("recovery resubmitted a refused job: %+v, %v", recovered, err)
	}
	// The refusal released its claim on the output path.
	if _, err := sys.Submit(spec); err != nil {
		t.Fatalf("the same submission on a healthy system: %v", err)
	}
}

// pairsProgram shuffles every page's content: a map task over a megabyte
// of pages spills more than stays in memory.
const pairsProgram = `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("url"), v.Str("content"))
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	n := 0
	for values.Next() {
		n = n + 1
	}
	ctx.Emit(key, n)
}
`

// TestUnusableWorkDirFailsAtFirstDiskSpill: admission no longer touches
// the scratch space, so with an unusable work directory a job whose
// shuffle stays in memory still runs, and one that needs a spill file is
// accepted and fails at that spill — journaled failed, so recovery
// replays nothing.
func TestUnusableWorkDirFailsAtFirstDiskSpill(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(24).WriteWebPages(data, 3000, 1024); err != nil {
		t.Fatal(err)
	}
	sysDir := filepath.Join(dir, "sys")
	sys, err := manimal.NewSystemWith(sysDir, manimal.Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(sysDir, "work")
	if err := errors.Join(os.Remove(work), os.WriteFile(work, nil, 0o644)); err != nil {
		t.Fatal(err)
	}

	if _, err := sys.Submit(crashSpec("tiny", data, filepath.Join(dir, "tiny.kv"), 0)); err != nil {
		t.Fatalf("a job whose shuffle fits in memory needed the scratch space: %v", err)
	}

	prog, err := manimal.ParseProgram("pairs.go", pairsProgram)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitAsync(context.Background(), manimal.JobSpec{
		Name:             "spills",
		Inputs:           []manimal.InputSpec{{Path: data, Program: prog}},
		OutputPath:       filepath.Join(dir, "spills.kv"),
		MaxParallelTasks: 1, // two map tasks of about 1.5 MB each
	})
	if err != nil {
		t.Fatalf("admission touched the scratch space: %v", err)
	}
	if _, err := h.Wait(); err == nil || !strings.Contains(err.Error(), "spill directory") {
		t.Fatalf("job spilling into an unusable work directory: err = %v; want the spill-directory failure", err)
	}
	if e, ok, err := sys.Journal().Lookup(h.JournalID()); err != nil || !ok || e.State() != journal.StateFailed {
		t.Fatalf("failed job's journal state = %s (ok %v, err %v), want failed", e.State(), ok, err)
	}
	if err := errors.Join(sys.Close(), os.Remove(work)); err != nil {
		t.Fatal(err)
	}

	sys, err = manimal.NewSystemWith(sysDir, manimal.Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if recovered, err := sys.Recover(context.Background()); err != nil || len(recovered) != 0 {
		t.Fatalf("recovery resubmitted terminal jobs: %+v, %v", recovered, err)
	}
}

// TestRecoverySweepsOutputDebrisLiterally: the output path of an
// interrupted job is a name, not a glob pattern — recovery removes the temp
// file a commit to "out[1].kv" left, and not the one "out1.kv" owns.
func TestRecoverySweepsOutputDebrisLiterally(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(23).WriteWebPages(data, 200, 32); err != nil {
		t.Fatal(err)
	}
	sysDir := filepath.Join(dir, "sys")
	out := filepath.Join(dir, "out[1].kv")
	// What a coordinator that died inside the output commit leaves: an
	// accepted job with no terminal record, and the commit's temp file.
	jnl, err := journal.Open(filepath.Join(sysDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = jnl.Begin(journal.Submission{Name: "interrupted", OutputPath: out, NumReducers: 1,
		Inputs: []journal.Input{{Path: data, ProgramName: "count.go", Program: crashCountProgram}},
		Conf:   map[string]journal.ConfValue{"threshold": {Kind: "int", Value: "5000"}}})
	if err := errors.Join(err, jnl.Close()); err != nil {
		t.Fatal(err)
	}
	debris, bystander := out+".tmp-123", filepath.Join(dir, "out1.kv.tmp-7")
	if err := errors.Join(os.WriteFile(debris, []byte("partial"), 0o644), os.WriteFile(bystander, nil, 0o644)); err != nil {
		t.Fatal(err)
	}

	sys, err := manimal.NewSystemWith(sysDir, manimal.Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	recovered, err := sys.Recover(context.Background())
	if err != nil || len(recovered) != 1 || recovered[0].Err != nil {
		t.Fatalf("Recover = %+v, %v", recovered, err)
	}
	if _, err := recovered[0].Handle.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Errorf("the interrupted commit's temp file survived recovery (stat err = %v)", err)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Errorf("recovery removed another output's temp file: %v", err)
	}
	if pairs, err := manimal.ReadOutput(out); err != nil || len(pairs) == 0 {
		t.Errorf("recovered output: %d pairs, %v", len(pairs), err)
	}
}
