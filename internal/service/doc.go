// Package service turns the speculative runtime into a long-running
// multi-tenant region service: many concurrent region invocations over
// shared immutable state (one decoded interp.Program and one warmed
// specrt.WorkerPool per compiled program), with per-invocation address
// spaces, stats and tenant-labeled metrics keeping tenants isolated from
// one another.
//
// A Service owns a bounded job queue with admission control (per-tenant
// inflight quotas, queue-full backpressure, typed rejection errors) and a
// fixed set of runner goroutines, each executing one invocation at a time
// through core.Run. Drain performs a graceful shutdown: new submissions
// are refused, jobs still queued fail with ErrDraining, and in-flight
// invocations run to completion. The service keeps the last
// Config.RetainJobs finished jobs: an older job's ID answers GoneError
// (HTTP 410), and its trace ring is reset and recycled into the next job
// of its program and input.
//
// The HTTP surface (Mount) exposes the service through the obs.Server's
// listener as a submit/poll JSON API — POST /submit, GET /poll?id=...,
// GET /service — documented with curl examples in docs/OPERATIONS.md.
package service
