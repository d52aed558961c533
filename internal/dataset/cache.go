package dataset

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
)

// Cache observability: hits read a valid file, misses simulate and write
// one, collapses are concurrent in-process callers that shared another
// caller's simulation instead of reading or simulating themselves. Byte
// counters record cache I/O volume. All land in run manifests under the
// "dataset.cache.*" keys.
var (
	cacheHits         = obs.NewCounter("dataset.cache.hits")
	cacheMisses       = obs.NewCounter("dataset.cache.misses")
	cacheCollapses    = obs.NewCounter("dataset.cache.collapses")
	cacheBytesRead    = obs.NewCounter("dataset.cache.bytes_read")
	cacheBytesWritten = obs.NewCounter("dataset.cache.bytes_written")
)

// CacheStats is a point-in-time reading of the telemetry-cache counters.
type CacheStats struct {
	Hits, Misses, Collapses int64
	BytesRead, BytesWritten int64
}

// ReadCacheStats reports the process-wide telemetry-cache activity, used
// by paperbench's end-of-run cache report (cold and warm runs are
// otherwise indistinguishable in logs).
func ReadCacheStats() CacheStats {
	return CacheStats{
		Hits:         cacheHits.Value(),
		Misses:       cacheMisses.Value(),
		Collapses:    cacheCollapses.Value(),
		BytesRead:    cacheBytesRead.Value(),
		BytesWritten: cacheBytesWritten.Value(),
	}
}

// cacheVersion invalidates cached telemetry when the recording format or
// simulator behaviour changes incompatibly.
const cacheVersion = 4

// CacheFileRef identifies one telemetry-cache file this process read or
// wrote, for checkpoint manifests: a resumed run can verify its cache files
// still exist before deciding it can replay fully offline.
type CacheFileRef struct {
	Key   string `json:"key"`
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

var (
	cacheRefMu sync.Mutex
	cacheRefs  []CacheFileRef
)

// recordCacheFile notes a cache file served (hit) or published (miss) by
// this process, deduplicating by path.
func recordCacheFile(key, path string) {
	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	cacheRefMu.Lock()
	defer cacheRefMu.Unlock()
	for _, r := range cacheRefs {
		if r.Path == path {
			return
		}
	}
	cacheRefs = append(cacheRefs, CacheFileRef{Key: key, Path: path, Bytes: size})
}

// RecordedCacheFiles returns the telemetry-cache files this process has
// touched so far, in first-touch order.
func RecordedCacheFiles() []CacheFileRef {
	cacheRefMu.Lock()
	defer cacheRefMu.Unlock()
	return append([]CacheFileRef(nil), cacheRefs...)
}

type cacheFile struct {
	Version int
	Key     string
	Traces  []*TraceTelemetry
}

// corpusHash fingerprints the generator content — application phases,
// transitions, and trace seeds — so cached telemetry is invalidated when
// workload definitions change, not only when counts do.
func corpusHash(c *trace.Corpus) uint64 {
	h := fnv.New64a()
	w := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, a := range c.Apps {
		h.Write([]byte(a.Name))
		w(float64(a.Seed))
		for _, ph := range a.Phases {
			p := ph.Params
			for _, v := range []float64{
				p.DepDist, p.LoadFrac, p.StoreFrac, p.BranchFrac, p.FPFrac,
				p.LongLatFrac, float64(p.DataFootprint), float64(p.CodeFootprint),
				p.StrideFrac, p.BranchEntropy, float64(ph.Length),
			} {
				w(v)
			}
		}
		for _, row := range a.Transition {
			for _, v := range row {
				w(v)
			}
		}
	}
	for _, t := range c.Traces {
		w(float64(t.Seed))
		w(float64(t.StartPhase))
		w(float64(t.NumInstrs))
	}
	return h.Sum64()
}

// fits reports whether decoded telemetry has the shape SimulateCorpus
// gives c: one record per trace, in order, naming the trace and its seed,
// with fixed-mode recordings of equal length and full base vectors.
func fits(tel []*TraceTelemetry, c *trace.Corpus) bool {
	if len(tel) != len(c.Traces) {
		return false
	}
	for i, tt := range tel {
		tr := c.Traces[i]
		if tt == nil || tt.TraceName != tr.Name || tt.Seed != tr.Seed || len(tt.HighPerf) != len(tt.LowPower) {
			return false
		}
		for _, recs := range [][]IntervalRecord{tt.HighPerf, tt.LowPower} {
			for _, r := range recs {
				if len(r.Base) != telemetry.NumBase {
					return false
				}
			}
		}
	}
	return true
}

// simFlight collapses concurrent in-process simulations of the same cache
// key into one: losers block on the winner's simulation and share its
// telemetry instead of re-simulating (or reading a cache file that is
// still being written).
var simFlight parallel.Group[[]*TraceTelemetry]

// SimulateCorpusCached simulates a corpus, memoising the result as a gob
// file under dir keyed by the corpus name, trace count, and config. A
// cache hit skips simulation entirely; corruption or mismatch falls back
// to simulating and rewriting. Pass dir == "" to disable caching.
//
// The function is safe for concurrent use, in-process and across
// processes: concurrent in-process callers of the same key simulate once
// (single-flight), and the cache file is written to a unique temp file and
// published atomically with os.Rename, so a reader never observes a torn
// file. cfg.Workers deliberately stays out of the key — telemetry is
// worker-count-independent.
func SimulateCorpusCached(c *trace.Corpus, cfg Config, dir string) ([]*TraceTelemetry, error) {
	if dir == "" {
		return SimulateCorpus(c, cfg), nil
	}
	key := cacheKey(c, cfg)
	path := filepath.Join(dir, key+".gob")

	tel, err, shared := simFlight.Do(path, func() ([]*TraceTelemetry, error) {
		return loadOrSimulate(c, cfg, path, key, dir)
	})
	if shared {
		cacheCollapses.Inc()
	}
	return tel, err
}

// cacheKey names c's cache file under cfg: the corpus name and size, the
// config, the generator content hash and the cache version.
func cacheKey(c *trace.Corpus, cfg Config) string {
	return fmt.Sprintf("%s-%d-%d-%s-%x-v%d", c.Name, len(c.Apps), len(c.Traces), cfg, corpusHash(c), cacheVersion)
}

// readCache decodes a cache file and returns its telemetry when the file
// is of this cache version, carries key and fits c; any other bytes are a
// miss (false), never a panic.
func readCache(r io.Reader, c *trace.Corpus, key string) ([]*TraceTelemetry, bool) {
	var cached cacheFile
	if err := gob.NewDecoder(r).Decode(&cached); err != nil {
		return nil, false
	}
	if cached.Version != cacheVersion || cached.Key != key || !fits(cached.Traces, c) {
		return nil, false
	}
	return cached.Traces, true
}

// loadOrSimulate is the single-flighted body: read a valid cache file or
// simulate and atomically publish one. A file that decodes but does not
// fit the corpus counts as a miss and is overwritten.
func loadOrSimulate(c *trace.Corpus, cfg Config, path, key, dir string) ([]*TraceTelemetry, error) {
	if f, err := os.Open(path); err == nil {
		tel, ok := readCache(f, c, key)
		f.Close()
		if ok {
			cacheHits.Inc()
			if fi, err := os.Stat(path); err == nil {
				cacheBytesRead.Add(fi.Size())
			}
			recordCacheFile(key, path)
			return tel, nil
		}
	}
	cacheMisses.Inc()

	tel := SimulateCorpus(c, cfg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return tel, fmt.Errorf("dataset: cache dir: %w", err)
	}
	// A unique temp name per writer keeps concurrent processes from
	// clobbering each other's half-written files; whichever rename lands
	// last wins, and both contents are identical by determinism.
	f, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return tel, fmt.Errorf("dataset: cache create: %w", err)
	}
	tmp := f.Name()
	enc := gob.NewEncoder(f)
	err = enc.Encode(cacheFile{Version: cacheVersion, Key: key, Traces: tel})
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return tel, fmt.Errorf("dataset: cache write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return tel, fmt.Errorf("dataset: cache rename: %w", err)
	}
	if fi, err := os.Stat(path); err == nil {
		cacheBytesWritten.Add(fi.Size())
	}
	recordCacheFile(key, path)
	return tel, nil
}
