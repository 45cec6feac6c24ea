package router

import "srda/internal/obs"

// metrics is the router's instrument set on its own obs registry, kept
// separate from the worker instruments so a co-located process exposes
// both without collisions.  Registration order is exposition order; new
// instruments go at the end.
type metrics struct {
	reg           *obs.Registry
	requests      *obs.CounterVec // replica, code
	shed          *obs.CounterVec // reason, tenant
	backendErrors *obs.CounterVec // replica
	forward       *obs.Histogram  // routed predict seconds, admission → backend reply
}

func newMetrics(ringMembers, healthy func() int64) *metrics {
	reg := obs.NewRegistry()
	mx := &metrics{
		reg: reg,
		requests: reg.NewCounterVec("srdaroute_requests_total",
			"Routed predict requests by backend replica and status code.", "replica", "code"),
		shed: reg.NewCounterVec("srdaroute_shed_total",
			"Requests shed before reaching a backend, by reason (quota, overload, no_backend, draining) and tenant.", "reason", "tenant"),
		backendErrors: reg.NewCounterVec("srdaroute_backend_errors_total",
			"Forwarded requests that failed at the backend, by replica.", "replica"),
		forward: reg.NewHistogram("srdaroute_forward_seconds",
			"Routed predict latency from admission to backend reply."),
	}
	reg.NewGaugeFunc("srdaroute_ring_members",
		"Replicas currently on the hash ring (healthy and not draining).", ringMembers)
	reg.NewGaugeFunc("srdaroute_healthy_replicas",
		"Replicas passing their health checks, including draining ones.", healthy)
	return mx
}

// bindTenantLatency registers the per-tenant forward-latency quantile
// gauge families, views of per-tenant histograms; separate from
// newMetrics because the router (which owns the histograms) must exist
// first.
func (m *metrics) bindTenantLatency(r *Router) {
	m.reg.NewGaugeVecFunc("srdaroute_tenant_latency_p50",
		"Median successful routed-predict latency per tenant in seconds.",
		[]string{"tenant"}, func() []obs.GaugeSample { return r.tenantLatencySamples(0.5) })
	m.reg.NewGaugeVecFunc("srdaroute_tenant_latency_p99",
		"99th-percentile successful routed-predict latency per tenant in seconds.",
		[]string{"tenant"}, func() []obs.GaugeSample { return r.tenantLatencySamples(0.99) })
}
