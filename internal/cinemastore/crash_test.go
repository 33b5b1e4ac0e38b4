package cinemastore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"insituviz/internal/provenance"
)

// The crash-point suite runs a writer — or RepairOpen itself — through a
// recording fileOps, then rebuilds, for every prefix of the recorded
// operations, every directory a crash at that point may leave behind, and
// requires RepairOpen to recover a committed index whose every frame
// verifies.
//
// The crash model: a file's bytes survive only up to its last fsync, and
// any unsynced tail may be absent, empty, torn or whole; a rename survives
// once a later directory fsync covers it, and before that it may or may
// not have happened, each independently. Temp files that were never
// renamed are left behind as debris. The provenance ledger syncs its own
// appends (outside the seam), so its file is taken as durable at the
// Commit that appended it. RepairOpen's quarantine renames move a file
// into QuarantineDir; the model keeps one namespace, naming the moved file
// "quarantine/<name>", and takes the database directory's fsync to cover
// the move.

type crashOp struct {
	kind string // exists, create, write, sync, close, rename, syncdir, manifest
	name string // base name; a rename's source
	to   string // a rename's destination, relative to the database directory
	data []byte // a write's bytes; an existing file's or the manifest's durable content
}

// recorder performs each operation on the real directory and logs it.
type recorder struct {
	mu  sync.Mutex
	ops []crashOp
}

func (r *recorder) add(op crashOp) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

func (r *recorder) createTemp(dir, pattern string) (tempFile, error) {
	f, err := osOps{}.createTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	r.add(crashOp{kind: "create", name: filepath.Base(f.Name())})
	return &recFile{tempFile: f, r: r}, nil
}

func (r *recorder) rename(oldpath, newpath string) error {
	if err := (osOps{}).rename(oldpath, newpath); err != nil {
		return err
	}
	to := filepath.Base(newpath)
	if filepath.Base(filepath.Dir(newpath)) == QuarantineDir {
		to = QuarantineDir + "/" + to
	}
	r.add(crashOp{kind: "rename", name: filepath.Base(oldpath), to: to})
	return nil
}

func (r *recorder) syncFile(path string) error {
	if err := (osOps{}).syncFile(path); err != nil {
		return err
	}
	r.add(crashOp{kind: "sync", name: filepath.Base(path)})
	return nil
}

func (r *recorder) syncDir(dir string) error {
	if err := (osOps{}).syncDir(dir); err != nil {
		return err
	}
	r.add(crashOp{kind: "syncdir"})
	return nil
}

type recFile struct {
	tempFile
	r *recorder
}

func (f *recFile) Write(p []byte) (int, error) {
	n, err := f.tempFile.Write(p)
	f.r.add(crashOp{kind: "write", name: filepath.Base(f.Name()), data: append([]byte(nil), p[:n]...)})
	return n, err
}

func (f *recFile) Sync() error {
	if err := f.tempFile.Sync(); err != nil {
		return err
	}
	f.r.add(crashOp{kind: "sync", name: filepath.Base(f.Name())})
	return nil
}

func (f *recFile) Close() error {
	if err := f.tempFile.Close(); err != nil {
		return err
	}
	f.r.add(crashOp{kind: "close", name: filepath.Base(f.Name())})
	return nil
}

// commitRec is one Commit call as the suite saw it: the index it was to
// publish and the operation span it covered.
type commitRec struct {
	index []byte
	start int // operations logged before the call
	// durable is the crash point from which this index must survive: just
	// after its final directory fsync.
	durable int
}

// crashRun is a writer scenario under the recorder.
type crashRun struct {
	t       *testing.T
	dir     string
	rec     *recorder
	commits []commitRec
	// from is the first crash point explored: the operations before it
	// only describe the directory the run started from.
	from int
}

func newCrashRun(t *testing.T) *crashRun {
	return &crashRun{t: t, dir: t.TempDir(), rec: &recorder{}}
}

func (c *crashRun) create() *Writer {
	w, err := Create(c.dir)
	if err != nil {
		c.t.Fatal(err)
	}
	w.fs = c.rec
	return w
}

func (c *crashRun) put(w *Writer, i int) Entry {
	e, err := w.Put(Key{Time: float64(i), Variable: "v"}, crashFrame(i))
	if err != nil {
		c.t.Fatal(err)
	}
	return e
}

func (c *crashRun) commit(w *Writer) {
	idx, err := EncodeIndex(w.Entries())
	if err != nil {
		c.t.Fatal(err)
	}
	start := len(c.rec.ops)
	if _, err := w.Commit(); err != nil {
		c.t.Fatal(err)
	}
	last := -1
	for i := start; i < len(c.rec.ops); i++ {
		if c.rec.ops[i].kind == "syncdir" {
			last = i
		}
	}
	if last < 0 {
		c.t.Fatal("Commit issued no directory fsync")
	}
	c.commits = append(c.commits, commitRec{index: idx, start: start, durable: last + 1})
	manifest, err := os.ReadFile(filepath.Join(c.dir, provenance.ManifestFile))
	if err != nil {
		c.t.Fatal(err)
	}
	c.rec.add(crashOp{kind: "manifest", data: manifest})
}

// crashFrame is frame i's bytes: distinct per frame and long enough that
// a torn copy differs from both the empty and the whole one.
func crashFrame(i int) []byte {
	return bytes.Repeat([]byte{byte(0x40 + i)}, 48+i)
}

type inode struct{ data, synced []byte }

type renameOp struct {
	from, to string
	ino      int
}

// crashModel is the file system after a prefix of the log: the current
// namespace, the namespace the last directory fsync made durable, and the
// renames since then.
type crashModel struct {
	inodes   []*inode
	cur, dur map[string]int
	renames  []renameOp
	manifest []byte
}

func replay(ops []crashOp) *crashModel {
	m := &crashModel{cur: map[string]int{}, dur: map[string]int{}}
	for _, op := range ops {
		switch op.kind {
		case "exists":
			m.inodes = append(m.inodes, &inode{data: op.data, synced: op.data})
			m.cur[op.name] = len(m.inodes) - 1
			m.dur[op.name] = len(m.inodes) - 1
		case "create":
			m.inodes = append(m.inodes, &inode{})
			m.cur[op.name] = len(m.inodes) - 1
		case "write":
			in := m.inodes[m.cur[op.name]]
			in.data = append(in.data, op.data...)
		case "sync":
			in := m.inodes[m.cur[op.name]]
			in.synced = append([]byte(nil), in.data...)
		case "rename":
			ino := m.cur[op.name]
			delete(m.cur, op.name)
			m.cur[op.to] = ino
			m.renames = append(m.renames, renameOp{op.name, op.to, ino})
		case "syncdir":
			m.dur = make(map[string]int, len(m.cur))
			for k, v := range m.cur {
				m.dur[k] = v
			}
			m.renames = nil
		case "manifest":
			m.manifest = op.data
		case "close":
		default:
			panic("unknown op " + op.kind)
		}
	}
	return m
}

// states calls visit with every directory (name → bytes) a crash after
// the replayed prefix may leave.
func (m *crashModel) states(visit func(map[string][]byte)) {
	for subset := 0; subset < 1<<len(m.renames); subset++ {
		ns := make(map[string]int, len(m.dur))
		for k, v := range m.dur {
			ns[k] = v
		}
		// Temp files not yet renamed are debris a crash may leave.
		for k, v := range m.cur {
			if _, ok := ns[k]; !ok && strings.HasPrefix(k, ".") {
				ns[k] = v
			}
		}
		for i, r := range m.renames {
			if subset&(1<<i) == 0 {
				continue
			}
			ns[r.to] = r.ino
			if ns[r.from] == r.ino {
				delete(ns, r.from)
			}
		}
		names := make([]string, 0, len(ns))
		for k := range ns {
			names = append(names, k)
		}
		dir := map[string][]byte{}
		var walk func(int)
		walk = func(i int) {
			if i == len(names) {
				visit(dir)
				return
			}
			for _, v := range m.inodes[ns[names[i]]].variants() {
				dir[names[i]] = v
				walk(i + 1)
			}
		}
		walk(0)
	}
}

// variants lists the contents a crash may leave in the inode: the synced
// bytes alone, or over them an absent, empty, torn or whole unsynced tail.
func (in *inode) variants() [][]byte {
	if bytes.Equal(in.data, in.synced) {
		return [][]byte{in.data}
	}
	var out [][]byte
	for _, v := range [][]byte{in.synced, {}, in.data[:len(in.data)/2], in.data} {
		dup := false
		for _, o := range out {
			dup = dup || bytes.Equal(o, v)
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// check materialises every crash state at every operation index and
// recovers each through RepairOpen.
func (c *crashRun) check() {
	c.explore(func(point int, dir string, files map[string][]byte) error {
		// The committed indexes a crash here may recover: from the last one
		// whose directory fsync is done through the last one begun.
		lo, hi := -1, -1
		for j, cm := range c.commits {
			if cm.durable <= point {
				lo = j
			}
			if cm.start < point {
				hi = j
			}
		}
		return c.recoverState(dir, files, lo, hi)
	})
}

// explore materialises every crash state at every operation index in a
// directory of its own and calls verify on it.
func (c *crashRun) explore(verify func(point int, dir string, files map[string][]byte) error) {
	t := c.t
	root := t.TempDir()
	var states, failures int
	for point := c.from; point <= len(c.rec.ops); point++ {
		m := replay(c.rec.ops[:point])
		m.states(func(files map[string][]byte) {
			states++
			dir := filepath.Join(root, fmt.Sprint(states))
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			defer os.RemoveAll(dir)
			for name, data := range files {
				if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if m.manifest != nil {
				if err := os.WriteFile(filepath.Join(dir, provenance.ManifestFile), m.manifest, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := verify(point, dir, files); err != nil {
				failures++
				if failures <= 3 {
					t.Errorf("crash after op %d of %d (%s): %v\nstate: %s", point, len(c.rec.ops), c.opName(point), err, describe(files))
				}
			}
		})
	}
	if failures > 0 {
		t.Errorf("%d of %d crash states did not recover", failures, states)
	}
	t.Logf("%d operations, %d crash states recovered", len(c.rec.ops), states)
}

func (c *crashRun) opName(point int) string {
	if point == 0 {
		return "before the first"
	}
	op := c.rec.ops[point-1]
	return strings.TrimSpace(op.kind + " " + op.name + " " + op.to)
}

// recoverState runs RepairOpen over one crash state and checks that it lands
// on one of commits[lo..hi] (lo = -1: none need have survived) and that
// every frame that index names verifies.
func (c *crashRun) recoverState(dir string, files map[string][]byte, lo, hi int) error {
	st, rep, err := RepairOpen(dir)
	if err != nil {
		_, hasIndex := files[IndexFile]
		_, hasBackup := files[BackupFile]
		if lo < 0 && !hasIndex && !hasBackup {
			return nil // nothing was ever committed
		}
		return fmt.Errorf("RepairOpen: %w", err)
	}
	if len(rep.CorruptQuarantined) > 0 {
		return fmt.Errorf("committed frames corrupt: %v", rep.CorruptQuarantined)
	}
	got, err := os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		return err
	}
	match := -1
	for j := max(lo, 0); j <= hi; j++ {
		if bytes.Equal(got, c.commits[j].index) {
			match = j
		}
	}
	if match < 0 {
		return fmt.Errorf("recovered index is none of commits %d..%d:\n%s", lo, hi, got)
	}
	for i := 0; i < st.Len(); i++ {
		e := st.EntryAt(i)
		data, err := st.ReadFrameAt(i)
		if err != nil {
			return fmt.Errorf("commit %d: %w", match, err)
		}
		if err := e.VerifyFrame(data); err != nil {
			return fmt.Errorf("commit %d: %w", match, err)
		}
	}
	return nil
}

func describe(files map[string][]byte) string {
	var sb strings.Builder
	for name, data := range files {
		fmt.Fprintf(&sb, "%s(%d) ", name, len(data))
	}
	return sb.String()
}

// TestCrashPointsPutAdoptCommit: Put×2 → Commit → Put and a second
// writer's Put adopted by the first → Commit, the in-process and the
// in-transit write paths into one directory.
func TestCrashPointsPutAdoptCommit(t *testing.T) {
	c := newCrashRun(t)
	w := c.create()
	c.put(w, 0)
	c.put(w, 1)
	c.commit(w)
	c.put(w, 2)
	worker := c.create()
	e := c.put(worker, 3)
	if err := w.Adopt(e); err != nil {
		t.Fatal(err)
	}
	c.commit(w)
	if err := w.CloseLedger(); err != nil {
		t.Fatal(err)
	}
	c.check()
}

// TestCrashPointsRerun: a second run writes the same frames into a
// committed store. Each Put replaces a committed frame's file, which must
// never leave the committed index naming unsynced bytes.
func TestCrashPointsRerun(t *testing.T) {
	c := newCrashRun(t)
	w := c.create()
	c.put(w, 0)
	c.put(w, 1)
	c.commit(w)
	if err := w.CloseLedger(); err != nil {
		t.Fatal(err)
	}
	again := c.create()
	c.put(again, 0)
	c.put(again, 1)
	c.put(again, 2)
	c.commit(again)
	if err := again.CloseLedger(); err != nil {
		t.Fatal(err)
	}
	c.check()
}

// repairRun records RepairOpen over the database c.dir holds: each file in
// it enters the log as durable, then RepairOpen runs through the recorder.
// It returns the repaired index.
func (c *crashRun) repairRun() []byte {
	t := c.t
	listing, err := os.ReadDir(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range listing {
		data, err := os.ReadFile(filepath.Join(c.dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		kind := "exists"
		if de.Name() == provenance.ManifestFile {
			kind = "manifest"
		}
		c.rec.add(crashOp{kind: kind, name: de.Name(), data: data})
	}
	c.from = len(c.rec.ops)
	if _, _, err := repairOpen(c.rec, c.dir); err != nil {
		t.Fatal(err)
	}
	repaired, err := os.ReadFile(filepath.Join(c.dir, IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	return repaired
}

// checkRepair requires that a crash anywhere in the recorded RepairOpen
// leaves a directory a second RepairOpen brings to the repaired index with
// every frame verifying, and that once the recorded run has returned, a
// crash leaves that second RepairOpen nothing to do.
func (c *crashRun) checkRepair(repaired []byte) {
	c.explore(func(point int, dir string, _ map[string][]byte) error {
		st, rep, err := RepairOpen(dir)
		if err != nil {
			return fmt.Errorf("RepairOpen: %w", err)
		}
		got, err := os.ReadFile(filepath.Join(dir, IndexFile))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, repaired) {
			return fmt.Errorf("recovered index is not the repaired one:\n%s", got)
		}
		for i := 0; i < st.Len(); i++ {
			data, err := st.ReadFrameAt(i)
			if err == nil {
				err = st.EntryAt(i).VerifyFrame(data)
			}
			if err != nil {
				return err
			}
		}
		if point == len(c.rec.ops) && (rep.RecoveredBackup || len(rep.Quarantined)+len(rep.CorruptQuarantined) > 0) {
			return fmt.Errorf("the returned repair did not last: %+v", rep)
		}
		return nil
	})
}

// TestCrashPointsRepairOpen cuts RepairOpen itself at every operation, on
// a torn commit (the backup index restored, the torn commit's frame and a
// temp file quarantined) and on a bit-rotted frame (the index rewritten
// without it, then the frame quarantined).
func TestCrashPointsRepairOpen(t *testing.T) {
	t.Run("torn commit", func(t *testing.T) {
		c := newCrashRun(t)
		w, err := Create(c.dir)
		if err != nil {
			t.Fatal(err)
		}
		c.put(w, 0)
		c.put(w, 1)
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		c.put(w, 2)
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := w.CloseLedger(); err != nil {
			t.Fatal(err)
		}
		index := filepath.Join(c.dir, IndexFile)
		data, err := os.ReadFile(index)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(index, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(c.dir, ".info.json.tmp-1"), data[:7], 0o644); err != nil {
			t.Fatal(err)
		}
		c.checkRepair(c.repairRun())
	})
	t.Run("bit rot", func(t *testing.T) {
		c := newCrashRun(t)
		w, err := Create(c.dir)
		if err != nil {
			t.Fatal(err)
		}
		c.put(w, 0)
		rotten := c.put(w, 1)
		c.put(w, 2)
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := w.CloseLedger(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(c.dir, rotten.File)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x80
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c.checkRepair(c.repairRun())
	})
}
