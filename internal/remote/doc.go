// Package remote distributes engine evaluations across a fleet of worker
// processes, sharding the (config × condition) plane behind the engine's
// memoizing cache.
//
// Topology: a coordinator (Fleet) listens on TCP; workers (Worker,
// typically cmd/optima-worker processes) dial in, handshake, and then pull
// batches of evaluation cells. The coordinator plugs in beneath the engine
// as its batch seam — Fleet implements engine.Dispatcher, attached with
// Engine.WithDispatcher — so EvaluateBatch, EvaluateMatrix, search runs,
// and the server all gain distribution with zero changes: the engine's
// store and cache layers run first, and only true misses are ever shipped.
// Cells travel under the engine's backend name, so keys are identical to a
// local run, and cells no worker can take run through engine.Local.
//
// Placement is one function, Fleet.place, for first shipments and
// reassignments alike; its rule is key-range over engine.Key.Hash, the
// store's host-stable hash, across the live workers. Workers keep no
// store, and the hash covers the condition, so a config's cells spread
// across workers, each calibrating its golden trim (41 of the 48
// default-grid configs at three conditions split across 2 workers). Work
// stealing rebalances slow workers, dead workers have their in-flight
// cells reassigned exactly once per loss, and a fleet with zero live
// workers degrades to local evaluation rather than failing. Backends are
// deterministic, so first-result-wins deduplication is sound and results
// are byte-identical to a local run at any worker count.
//
// The wire protocol is internal/codec frames, the codec of internal/store's
// records: a u32 body length, a u32 CRC32 of the body, u16-length strings,
// and the job and metrics words bit for bit — exact round-trip, no JSON in
// the hot path. Each read is bounded by the largest frame of the type it
// expects, so a peer cannot make the coordinator allocate more than about
// 4 KiB before it has joined. The handshake carries a calibration
// fingerprint; a worker whose model calibration differs from the
// coordinator's is rejected at connect time, never silently mixed into
// results. A worker that sends a frame that does not decode (non-finite
// metrics included) or a result for a cell it was never shipped is
// dropped and its cells reassigned, like a dead one.
package remote
