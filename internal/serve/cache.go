package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"ftsched/internal/appio"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/serveapi"
	"ftsched/internal/sim"
)

// compiled is the immutable artifact one cache entry currently serves:
// the synthesised tree and its compiled dispatcher, plus reload
// bookkeeping. Handlers load it once per request through an atomic
// pointer, so a hot reload swaps the whole artifact without a lock on the
// request path — in-flight cycles keep dispatching on the compiled state
// they loaded.
type compiled struct {
	tree *core.Tree
	disp *runtime.Dispatcher
	// generation counts reloads of the entry (0 = first compilation).
	generation int
	// arcsTrimmed is the trim count of the latest reload (0 otherwise).
	arcsTrimmed int
}

// entry is one cached application: the decoded model, its canonical
// encoding (the hash pre-image, kept for reload re-synthesis and
// debugging), the normalised synthesis options, and the atomically
// swappable compiled artifact.
type entry struct {
	key     string
	app     *appEntry
	opts    core.FTQSOptions
	state   atomic.Pointer[compiled]
	lastUse atomic.Int64
	// mu serialises compilation and reload of this entry so concurrent
	// misses for the same key synthesise once.
	mu sync.Mutex
}

type appEntry struct {
	app  *model.Application
	json []byte
}

// Cache is the bounded compiled-tree cache: one entry per
// (application, FTQS options) pair, keyed by the canonical hash, evicted
// least-recently-used beyond Cap. All methods are safe for concurrent
// use.
type Cache struct {
	cap  int
	sink obs.Sink

	mu      sync.Mutex
	entries map[string]*entry
	clock   atomic.Int64
}

// newCache builds a cache holding at most capacity compiled trees
// (capacity < 1 selects DefaultCacheSize). The sink receives cache hit,
// miss and reload counters and is attached to every compiled dispatcher,
// so dispatch instrumentation flows regardless of which tenant triggered
// the compile.
func newCache(capacity int, sink obs.Sink) *Cache {
	if capacity < 1 {
		capacity = DefaultCacheSize
	}
	return &Cache{cap: capacity, sink: sink, entries: make(map[string]*entry)}
}

// DefaultCacheSize bounds the cache when the server config leaves it zero.
const DefaultCacheSize = 64

// Len reports the number of cached trees.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// cacheKey derives the cache key of an application/options pair: a sha256 over
// the canonical application encoding (which embeds k and the platform)
// and the normalised synthesis options. Workers and Sink are excluded —
// synthesised trees are bit-identical for every worker count (the FTQS
// determinism contract), so they are execution hints, not identity.
func cacheKey(appJSON []byte, opts core.FTQSOptions) string {
	h := sha256.New()
	h.Write(appJSON)
	fmt.Fprintf(h, "|m=%d|sweep=%d|gain=%g|eval=%d|norevival=%t",
		opts.M, opts.SweepSamples, opts.MinGain, opts.EvalScenarios, opts.DisableRevival)
	return hex.EncodeToString(h.Sum(nil))
}

// normalizeOptions validates wire options and strips the execution hints
// that do not participate in tree identity.
func normalizeOptions(o *serveapi.FTQSOptionsJSON) (core.FTQSOptions, error) {
	var raw core.FTQSOptions
	if o != nil {
		raw = o.Core()
	}
	opts, err := raw.Validate()
	if err != nil {
		return core.FTQSOptions{}, err
	}
	opts.Sink = nil
	return opts, nil
}

// Resolve returns the compiled artifact a TreeRef addresses, compiling on
// a miss when the request embeds the application. The boolean reports a
// cache hit. Misses synthesise under the entry lock (one compile per key,
// however many concurrent requests race for it) and honour ctx.
func (c *Cache) Resolve(ctx context.Context, ref serveapi.TreeRef) (*entry, *compiled, bool, *serveapi.Error) {
	if ref.TreeKey != "" {
		e := c.lookup(ref.TreeKey)
		if e != nil {
			if st := e.state.Load(); st != nil {
				c.count(obs.ServeCacheHits)
				return e, st, true, nil
			}
		}
		if len(ref.App) == 0 {
			c.count(obs.ServeCacheMisses)
			return nil, nil, false, &serveapi.Error{
				Code: http.StatusNotFound, Kind: serveapi.KindUnknownTree,
				Message: fmt.Sprintf("tree %q is not cached and the request embeds no application to recompile it from", ref.TreeKey),
			}
		}
	}
	e, st, hit, werr := c.compile(ctx, ref.App, ref.Options)
	if werr != nil {
		return nil, nil, false, werr
	}
	if ref.TreeKey != "" && e.key != ref.TreeKey {
		return nil, nil, false, &serveapi.Error{
			Code: http.StatusBadRequest, Kind: serveapi.KindBadRequest,
			Message: fmt.Sprintf("tree_key %q does not match the embedded application (derived %q)", ref.TreeKey, e.key),
		}
	}
	return e, st, hit, nil
}

// compile resolves an embedded application to a compiled entry, reusing
// the cache when the derived key is already present.
func (c *Cache) compile(ctx context.Context, appJSON []byte, optsJSON *serveapi.FTQSOptionsJSON) (*entry, *compiled, bool, *serveapi.Error) {
	if len(appJSON) == 0 {
		return nil, nil, false, &serveapi.Error{
			Code: http.StatusBadRequest, Kind: serveapi.KindBadRequest,
			Message: "request embeds no application",
		}
	}
	opts, err := normalizeOptions(optsJSON)
	if err != nil {
		return nil, nil, false, &serveapi.Error{
			Code: http.StatusBadRequest, Kind: serveapi.KindInvalidConfig, Message: err.Error(),
		}
	}
	app, err := appio.DecodeApplication(bytes.NewReader(appJSON))
	if err != nil {
		return nil, nil, false, serveapi.WireError(err)
	}
	// Canonicalise: the key is derived from our own encoding of the
	// decoded application, so formatting and field order in the request
	// cannot split identical applications into distinct entries.
	var canon bytes.Buffer
	if err := appio.EncodeApplication(&canon, app); err != nil {
		return nil, nil, false, serveapi.WireError(err)
	}
	key := cacheKey(canon.Bytes(), opts)

	e := c.intern(key, app, canon.Bytes(), opts)
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.state.Load(); st != nil {
		c.count(obs.ServeCacheHits)
		return e, st, true, nil
	}
	c.count(obs.ServeCacheMisses)
	st, werr := c.synthesize(ctx, e, 0, nil)
	if werr != nil {
		return nil, nil, false, werr
	}
	e.state.Store(st)
	return e, st, false, nil
}

// lookup touches and returns the entry for key, or nil.
func (c *Cache) lookup(key string) *entry {
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e != nil {
		e.lastUse.Store(c.clock.Add(1))
	}
	return e
}

// intern returns the entry for key, inserting (and evicting the
// least-recently-used entry beyond capacity) if absent.
func (c *Cache) intern(key string, app *model.Application, appJSON []byte, opts core.FTQSOptions) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		e.lastUse.Store(c.clock.Add(1))
		return e
	}
	for len(c.entries) >= c.cap {
		var victim *entry
		for _, e := range c.entries {
			if victim == nil || e.lastUse.Load() < victim.lastUse.Load() {
				victim = e
			}
		}
		delete(c.entries, victim.key)
	}
	e := &entry{key: key, app: &appEntry{app: app, json: append([]byte(nil), appJSON...)}, opts: opts}
	e.lastUse.Store(c.clock.Add(1))
	c.entries[key] = e
	return e
}

// synthesize builds a fresh compiled artifact for an entry: FTQS
// synthesis, optional trimming, dispatcher compilation. Callers hold
// e.mu.
func (c *Cache) synthesize(ctx context.Context, e *entry, generation int, trim *serveapi.TrimJSON) (*compiled, *serveapi.Error) {
	opts := e.opts
	opts.Sink = c.sink
	tree, err := core.FTQSContext(ctx, e.app.app, opts)
	if err != nil {
		return nil, serveapi.WireError(err)
	}
	trimmed := 0
	if trim != nil {
		trimmed, err = sim.TrimContext(ctx, tree, sim.TrimConfig{
			Scenarios: trim.Scenarios, Seed: trim.Seed, Sink: c.sink,
		})
		if err != nil {
			return nil, serveapi.WireError(err)
		}
	}
	disp, err := runtime.NewDispatcher(tree, runtime.WithSink(c.sink))
	if err != nil {
		return nil, serveapi.WireError(err)
	}
	return &compiled{tree: tree, disp: disp, generation: generation, arcsTrimmed: trimmed}, nil
}

// Reload re-synthesises the tree behind key from its stored application
// and options — optionally trimmed — and swaps it in atomically.
// Requests that loaded the old artifact finish on it; the swap is the
// only mutation, so no request ever observes a half-built tree.
func (c *Cache) Reload(ctx context.Context, key string, trim *serveapi.TrimJSON) (*compiled, *serveapi.Error) {
	e := c.lookup(key)
	if e == nil {
		return nil, &serveapi.Error{
			Code: http.StatusNotFound, Kind: serveapi.KindUnknownTree,
			Message: fmt.Sprintf("tree %q is not cached", key),
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	gen := 0
	if old := e.state.Load(); old != nil {
		gen = old.generation + 1
	}
	st, werr := c.synthesize(ctx, e, gen, trim)
	if werr != nil {
		return nil, werr
	}
	e.state.Store(st)
	c.count(obs.ServeReloads)
	return st, nil
}

func (c *Cache) count(ctr obs.Counter) {
	if c.sink != nil {
		c.sink.Add(ctr, 1)
	}
}
