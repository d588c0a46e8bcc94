package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The wire protocol is plain HTTP+JSON:
//
//	POST /v1/campaigns                                  CampaignSpec → {}
//	GET  /v1/campaigns/{id}                             → Status
//	POST /v1/campaigns/{id}/acquire                     acquireRequest → acquireResponse
//	POST /v1/campaigns/{id}/leases/{lease}/heartbeat    Upload → heartbeatResponse
//	POST /v1/campaigns/{id}/leases/{lease}/complete     Upload → {}
//
// Semantic failures map to statuses plus a machine-readable `code`
// field in the JSON body that the client turns back into sentinel
// errors: 404 unknown campaign/lease (disambiguated by code), 410 lease
// lost, 409 duplicate campaign, 416 upload gap, 413 body too large, 400
// bad request. Anything transport-shaped (5xx, network) is retryable;
// 4xx is not.

type acquireRequest struct {
	Worker string `json:"worker"`
}

type acquireResponse struct {
	// Done means the campaign is finished: no more work, ever.
	Done bool `json:"done,omitempty"`
	// Lease is nil when no shard is free right now (and Done is false):
	// the worker should poll again shortly.
	Lease *Lease `json:"lease,omitempty"`
}

type heartbeatResponse struct {
	Deadline time.Time `json:"deadline"`
	// Held is how many of the lease's results the coordinator holds
	// after the upload. Coordinators that predate delta uploads omit
	// it, and a worker that never saw it always uploads from 0.
	Held *int `json:"held,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Code names the sentinel error machine-readably; HTTP statuses
	// alone are ambiguous (unknown campaign and unknown lease are both
	// 404, and a worker diagnosing the wrong one would re-acquire
	// against a campaign it believes is gone).
	Code string `json:"code,omitempty"`
}

// Wire error codes, mapped from sentinels by writeError and back by the
// client.
const (
	codeUnknownCampaign = "unknown_campaign"
	codeUnknownLease    = "unknown_lease"
	codeLeaseLost       = "lease_lost"
	codeCampaignExists  = "campaign_exists"
	codeUploadGap       = "upload_gap"
)

// maxBodyBytes bounds request and response bodies, so a malicious or
// confused peer cannot OOM the other side; a larger request is refused
// with 413, not truncated. A delta upload carries one chunk's results
// (at most ChunkProbes addresses), far below the bound; only a resend
// from 0 of a lease holding millions of results (≈11 JSON bytes each)
// can reach it.
const maxBodyBytes = 64 << 20

// NewHandler exposes the coordinator over HTTP.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec CampaignSpec
		if !decodeBody(w, r, &spec) {
			return
		}
		if err := c.CreateCampaign(spec); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, struct{}{})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := c.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/campaigns/{id}/acquire", func(w http.ResponseWriter, r *http.Request) {
		var req acquireRequest
		if !decodeBody(w, r, &req) {
			return
		}
		lease, done, err := c.Acquire(r.PathValue("id"), req.Worker)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, acquireResponse{Done: done, Lease: lease})
	})
	mux.HandleFunc("POST /v1/campaigns/{id}/leases/{lease}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var up Upload
		if !decodeBody(w, r, &up) {
			return
		}
		ren, err := c.Heartbeat(r.PathValue("id"), r.PathValue("lease"), up)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, heartbeatResponse{Deadline: ren.Deadline, Held: &ren.Held})
	})
	mux.HandleFunc("POST /v1/campaigns/{id}/leases/{lease}/complete", func(w http.ResponseWriter, r *http.Request) {
		var up Upload
		if !decodeBody(w, r, &up) {
			return
		}
		if err := c.Complete(r.PathValue("id"), r.PathValue("lease"), up); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, struct{}{})
	})
	return mux
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{Error: fmt.Sprintf("coord: reading request body: %v", err)})
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("coord: bad request body: %v", err)})
		return false
	}
	return true
}

func writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, ""
	switch {
	case errors.Is(err, ErrUnknownCampaign):
		status, code = http.StatusNotFound, codeUnknownCampaign
	case errors.Is(err, ErrUnknownLease):
		status, code = http.StatusNotFound, codeUnknownLease
	case errors.Is(err, ErrLeaseLost):
		status, code = http.StatusGone, codeLeaseLost
	case errors.Is(err, ErrCampaignExists):
		status, code = http.StatusConflict, codeCampaignExists
	case errors.Is(err, ErrUploadGap):
		status, code = http.StatusRequestedRangeNotSatisfiable, codeUploadGap
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
