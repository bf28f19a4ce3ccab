package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/memo"
	"repro/internal/shard"
)

// probeTimeout bounds the cheap control-plane calls (stats, cache
// probe). Characterize itself runs without a deadline — a cold
// characterization of a big table is legitimately slow.
const probeTimeout = 3 * time.Second

// Client is the RPC shard.Backend: it fronts one worker process over
// HTTP. Tables ship at most once per client and at chunk granularity
// (content-addressed by fingerprint down to per-chunk chain fingerprints:
// an append ships only the new chunks; a worker restart is detected by its
// unknown-fingerprint response and healed by re-shipping what was lost),
// cache probes cross the process boundary by fingerprint alone, and
// transport failures surface as shard.ErrBackendUnavailable so the router
// fails over along the rendezvous ranking. Safe for concurrent use.
type Client struct {
	addr string
	hc   *http.Client

	// shipped remembers which fingerprints this client has registered on
	// the worker, LRU-bounded to the same default entry budget as the
	// worker's table store — a long-lived front churning through tables
	// cannot leak tracking state past what the worker could even hold. An
	// aged-out entry costs one redundant manifest round-trip (the worker
	// answers "registered", no chunks ship), never a re-ship.
	shipped *memo.Cache[uint64, struct{}]

	tablesShipped atomic.Int64
	chunksShipped atomic.Int64
	bytesShipped  atomic.Int64
	// healthy tracks the last transport outcome for stats; it never gates
	// requests (every request finds out for itself).
	healthy atomic.Bool
}

// NewClient builds a backend for the worker at addr ("host:port" or a full
// http:// URL).
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	entries, _ := core.DefaultConfig().EffectiveCacheBounds()
	c := &Client{
		addr:    strings.TrimRight(addr, "/"),
		hc:      &http.Client{},
		shipped: memo.New[uint64, struct{}](entries, 0),
	}
	c.healthy.Store(true)
	return c
}

// Addr returns the worker base URL the client targets.
func (c *Client) Addr() string { return c.addr }

// unavailable marks the transport down and wraps the cause in
// shard.ErrBackendUnavailable.
func (c *Client) unavailable(err error) error {
	c.healthy.Store(false)
	return fmt.Errorf("%w: worker %s: %v", shard.ErrBackendUnavailable, c.addr, err)
}

// post sends one octet-stream request; a nil ctx means no deadline.
func (c *Client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.healthy.Store(true)
	return resp, nil
}

// errorMessage extracts the worker's {"error": ...} body.
func errorMessage(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}

// RegisterTable ships f to the worker unless this client already did; the
// worker side is content-addressed too, so concurrent fronts shipping the
// same table cost one store, not a conflict.
func (c *Client) RegisterTable(f *frame.Frame) error {
	if _, done := c.shipped.Get(f.Fingerprint()); done {
		return nil
	}
	return c.register(f)
}

// markShipped records fp in the bounded shipped set.
func (c *Client) markShipped(fp uint64) {
	c.shipped.Do(fp, func(struct{}) int64 { return 1 }, func() (struct{}, error) { return struct{}{}, nil })
}

// forgetShipped drops fp from the shipped set (the worker proved it no
// longer holds the table, or this front superseded it).
func (c *Client) forgetShipped(fp uint64) {
	c.shipped.RemoveIf(func(k uint64) bool { return k == fp })
}

// register negotiates f onto the worker: POST the chunk manifest, then
// stream the chunks after the prefix the worker offered — nothing when the
// fingerprint is known, the suffix when the worker holds an earlier version
// of the table, everything when it is cold. The stream repeats the manifest
// and the offer, so the worker needs no memory of the first request. A 409
// means the offered base was evicted in between; ask again once.
func (c *Client) register(f *frame.Frame) error {
	manifest := EncodeManifest(BuildManifest(f))
	for attempt := 0; ; attempt++ {
		offer, err := c.negotiate(manifest)
		if err != nil {
			return err
		}
		if offer.Registered {
			break
		}
		if offer.PrefixChunks < 0 || offer.PrefixChunks > f.FullChunks() {
			return fmt.Errorf("remote: worker %s offered a %d-chunk prefix of a %d-chunk table", c.addr, offer.PrefixChunks, f.NumChunks())
		}
		body := EncodeStream(f, manifest, offer.Base, offer.PrefixChunks)
		resp, err := c.post(nil, PathChunks, body)
		if err != nil {
			return c.unavailable(err)
		}
		if resp.StatusCode == http.StatusConflict && attempt == 0 {
			resp.Body.Close()
			continue
		}
		if resp.StatusCode != http.StatusOK {
			defer resp.Body.Close()
			return fmt.Errorf("remote: worker %s rejected chunk stream: %s", c.addr, errorMessage(resp))
		}
		resp.Body.Close()
		c.tablesShipped.Add(1)
		c.chunksShipped.Add(int64(f.NumChunks() - offer.PrefixChunks))
		c.bytesShipped.Add(int64(len(body)))
		break
	}
	c.markShipped(f.Fingerprint())
	return nil
}

// negotiate runs the manifest phase and returns the worker's offer. The
// body is read to EOF so the keep-alive connection is reused.
func (c *Client) negotiate(manifest []byte) (ManifestResponse, error) {
	resp, err := c.post(nil, PathManifest, manifest)
	if err != nil {
		return ManifestResponse{}, c.unavailable(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ManifestResponse{}, fmt.Errorf("remote: worker %s rejected table manifest: %s", c.addr, errorMessage(resp))
	}
	var offer ManifestResponse
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(data, &offer)
	}
	if err != nil {
		return ManifestResponse{}, c.unavailable(fmt.Errorf("manifest response: %w", err))
	}
	c.bytesShipped.Add(int64(len(manifest)))
	return offer, nil
}

// Characterize runs the request on the worker. An unknown-fingerprint
// response (the worker restarted since this client shipped the table) is
// healed by re-shipping and retrying once; saturation comes back as a
// *shard.SaturatedError carrying the worker's Retry-After hint; transport
// failures as shard.ErrBackendUnavailable.
func (c *Client) Characterize(f *frame.Frame, sel *frame.Bitmap, opts core.Options) (*core.Report, error) {
	if sel == nil {
		// Mirror the engine's validation instead of panicking in the codec.
		return nil, fmt.Errorf("remote: nil selection")
	}
	body := EncodeRequest(Request{Fingerprint: f.Fingerprint(), Sel: sel, Opts: opts})
	rep, retry, err := c.characterizeOnce(body)
	if retry {
		// The worker lost the table (restart); our shipped-set was stale.
		// Re-registering heals it, and heals it incrementally: the manifest
		// phase discovers what the worker still holds, so only the chunks
		// after the surviving prefix cross the wire again.
		c.forgetShipped(f.Fingerprint())
		if err := c.register(f); err != nil {
			return nil, err
		}
		rep, _, err = c.characterizeOnce(body)
		return rep, err
	}
	return rep, err
}

// characterizeOnce performs one characterize RPC; retry reports an
// unknown-fingerprint response.
func (c *Client) characterizeOnce(body []byte) (rep *core.Report, retry bool, err error) {
	resp, err := c.post(nil, PathCharacterize, body)
	if err != nil {
		return nil, false, c.unavailable(err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := readReply(resp)
		if err != nil {
			return nil, false, c.unavailable(err)
		}
		rep, err := core.DecodeReport(data)
		if err != nil {
			return nil, false, fmt.Errorf("remote: worker %s: %w", c.addr, err)
		}
		return rep, false, nil
	case http.StatusNotFound:
		return nil, true, fmt.Errorf("remote: worker %s: %s", c.addr, errorMessage(resp))
	case http.StatusServiceUnavailable:
		return nil, false, &shard.SaturatedError{RetryAfter: retryAfterFrom(resp)}
	default:
		return nil, false, fmt.Errorf("remote: worker %s: %s", c.addr, errorMessage(resp))
	}
}

// retryAfterFrom recovers the backoff hint, preferring the
// millisecond-fidelity header over the integer-seconds standard one.
func retryAfterFrom(resp *http.Response) time.Duration {
	if ms, err := strconv.ParseInt(resp.Header.Get(RetryAfterMillisHeader), 10, 64); err == nil {
		return time.Duration(ms) * time.Millisecond
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// CachedReport probes the worker's report cache by fingerprint. Any
// transport or protocol failure is a miss — the router's characterize path
// will surface the real error.
func (c *Client) CachedReport(fp uint64, sel *frame.Bitmap, opts core.Options) (*core.Report, bool) {
	if sel == nil || opts.SkipReportCache {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	resp, err := c.post(ctx, PathCached, EncodeRequest(Request{Fingerprint: fp, Sel: sel, Opts: opts}))
	if err != nil {
		c.healthy.Store(false)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	data, err := readReply(resp)
	if err != nil {
		return nil, false
	}
	rep, err := core.DecodeReport(data)
	if err != nil {
		return nil, false
	}
	return rep, true
}

// readReply reads a report reply whole, at most maxBodyBytes of it. A reply
// with a Content-Length (the worker always sends one) is read into one
// buffer of exactly that size; one without it grows as io.ReadAll does.
func readReply(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 {
		return io.ReadAll(http.MaxBytesReader(nil, resp.Body, maxBodyBytes))
	}
	if n > maxBodyBytes {
		return nil, fmt.Errorf("reply of %d bytes exceeds the %d-byte limit", n, maxBodyBytes)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Snapshot folds the worker's sharded stats into one backend entry:
// traffic counters and queues summed across the worker's shards, the
// prepared tiers summed, the worker's shared report tier carried through,
// and the worst per-shard Retry-After hint. An unreachable worker, or one
// answering with a non-200 status, reports Healthy false with the
// client-side counters only.
func (c *Client) Snapshot() shard.ShardSnapshot {
	snap := shard.ShardSnapshot{
		Kind:          shard.KindRemote,
		Addr:          c.addr,
		TablesShipped: c.tablesShipped.Load(),
		ChunksShipped: c.chunksShipped.Load(),
		BytesShipped:  c.bytesShipped.Load(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.addr+PathStats, nil)
	if err != nil {
		return snap
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.healthy.Store(false)
		return snap
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.healthy.Store(false)
		return snap
	}
	var stats StatsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&stats); err != nil {
		c.healthy.Store(false)
		return snap
	}
	c.healthy.Store(true)
	snap.Healthy = true
	snap.Reports = stats.Stats.Reports
	var serviceMillis float64
	for _, sh := range stats.Stats.Shards {
		snap.Requests += sh.Requests
		snap.Rejected += sh.Rejected
		snap.ApproxServed += sh.ApproxServed
		snap.Inflight += sh.Inflight
		snap.Queued += sh.Queued
		snap.Completed += sh.Completed
		serviceMillis += sh.MeanServiceMillis * float64(sh.Completed)
		snap.Prepared = core.AddSnapshots(snap.Prepared, sh.Prepared)
		snap.Reports = core.AddSnapshots(snap.Reports, sh.Reports)
		if sh.RetryAfterMillis > snap.RetryAfterMillis {
			snap.RetryAfterMillis = sh.RetryAfterMillis
		}
	}
	if snap.Completed > 0 {
		// Completed-weighted mean across the worker's shards.
		snap.MeanServiceMillis = serviceMillis / float64(snap.Completed)
	}
	return snap
}

// InvalidateFrame tells the worker to drop the derived cache entries
// (reports, prepared structures) of a fingerprint this front's table
// lifecycle just superseded — Unregister and Append call it through the
// router, so an appended table's old reports don't squat the worker's
// caches until table-store eviction. The worker keeps the stored table
// itself (it is the delta base for the successor's registration) and other
// fronts recompute identical bytes on demand, so this is scoped precisely
// to what the re-registration supersedes. Best-effort: an unreachable
// worker has nothing worth invalidating.
func (c *Client) InvalidateFrame(fp uint64) {
	c.forgetShipped(fp)
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	resp, err := c.post(ctx, PathInvalidate, EncodeInvalidate(fp))
	if err != nil {
		c.healthy.Store(false)
		return
	}
	resp.Body.Close()
}

// Engine is nil: the worker's engine lives in another process, so the
// router answers this backend's repeats from its front tier.
func (c *Client) Engine() *core.Engine { return nil }

// Close drops idle transport connections.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// The compile-time seal of the tentpole: the RPC client is a drop-in shard
// backend.
var _ shard.Backend = (*Client)(nil)
