package gateway

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"iiotds/internal/coap"
	"iiotds/internal/metrics"
)

// lastValue is the /v1/last JSON document.
type lastValue struct {
	Resource      string `json:"resource"`
	Value         string `json:"value,omitempty"`
	ValueB64      string `json:"value_b64,omitempty"`
	ContentFormat uint32 `json:"content_format"`
	Seq           uint64 `json:"seq"`
	AgeMS         int64  `json:"age_ms"`
}

// resourceInfo is one row of the /v1/resources JSON document.
type resourceInfo struct {
	Resource  string `json:"resource"`
	Observers int    `json:"observers"`
	Cached    bool   `json:"cached"`
}

func textFormat(cf uint32) bool {
	switch cf {
	case coap.FormatText, coap.FormatJSON, coap.FormatLinkFormat:
		return true
	}
	return false
}

// HTTPHandler serves the gateway's HTTP/JSON read path:
//
//	GET /v1/last/<resource-path>  last cached representation (404 when cold)
//	GET /v1/resources             resource census with observer counts
//	GET /v1/stats                 gateway-wide counters
//
// Every response is served from gateway memory — polling clients never
// reach the CoAP side, let alone the mesh. Any method but GET is answered
// 405. No handler reads a request body, so there is no body limit: it
// would guard nothing.
func (g *Gateway) HTTPHandler() http.Handler {
	var requests *metrics.Counter
	var cacheServed *metrics.Counter
	if g.reg != nil {
		requests = g.reg.Counter("gw.http.requests")
		cacheServed = g.reg.Counter("gw.http.cache_served")
	}
	mux := http.NewServeMux()
	get := func(pattern string, fn http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				w.Header().Set("Allow", http.MethodGet)
				http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
				return
			}
			if requests != nil {
				requests.Inc()
			}
			fn(w, r)
		})
	}
	get("/v1/last/", func(w http.ResponseWriter, r *http.Request) {
		path := strings.Trim(strings.TrimPrefix(r.URL.Path, "/v1/last/"), "/")
		e, ok := g.cache.Get(path)
		if !ok {
			http.Error(w, `{"error":"no representation cached"}`, http.StatusNotFound)
			return
		}
		if cacheServed != nil {
			cacheServed.Inc()
		}
		doc := lastValue{
			Resource:      path,
			ContentFormat: e.ContentFormat,
			Seq:           e.Seq,
			AgeMS:         g.cache.Age(e).Milliseconds(),
		}
		if textFormat(e.ContentFormat) {
			doc.Value = string(e.Payload)
		} else {
			doc.ValueB64 = base64.StdEncoding.EncodeToString(e.Payload)
		}
		writeJSON(w, doc)
	})
	get("/v1/resources", func(w http.ResponseWriter, r *http.Request) {
		out := make([]resourceInfo, 0)
		for _, p := range g.srv.Paths() {
			_, cached := g.cache.Get(p)
			out = append(out, resourceInfo{
				Resource:  p,
				Observers: g.srv.Resource(p).ObserverCount(),
				Cached:    cached,
			})
		}
		writeJSON(w, out)
	})
	get("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, g.Stats())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// NewHTTPServer wraps h in an http.Server with read/write/idle timeouts
// set, so a slow or stalled client cannot pin a gateway goroutine
// forever (the default http.Server has no timeouts at all), and request
// headers capped at 8 KiB (the default is 1 MiB per connection); a
// larger header is answered 431.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 2 * time.Second,
		ReadTimeout:       5 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       60 * time.Second,
		MaxHeaderBytes:    8 << 10,
	}
}
