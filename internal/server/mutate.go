package server

// Mutation endpoints over the mutable disk backend:
//
//	POST /insert → insert one object (ObjectJSON body, a request object:
//	               at most maxInstances instances, the dataset's dimensionality)
//	POST /delete → remove one object by id
//
// Both answer 501 unless the backend implements Mutator with Mutable()
// true — the read-only disk index and the bulk-built in-memory index
// stay immutable over HTTP exactly as they are in the library. Each
// accepted request is one committed WAL transaction: when the response
// arrives the change is durable, and searches already in flight keep
// their pinned snapshot.

import (
	"errors"
	"fmt"
	"net/http"

	"spatialdom/internal/core"
	"spatialdom/internal/uncertain"
)

// Mutator is the optional Backend capability behind POST /insert and
// POST /delete. The mutable disk index implements it; Mutable() lets a
// read-only handle of the same concrete type decline at runtime.
type Mutator interface {
	Insert(o *uncertain.Object) error
	Delete(id int) (bool, error)
	Mutable() bool
}

// DeleteRequest is the POST /delete body.
type DeleteRequest struct {
	ID int `json:"id"`
}

// MutationResponse is the POST /insert and POST /delete response body.
type MutationResponse struct {
	ID      int  `json:"id"`
	Deleted bool `json:"deleted,omitempty"`
	// Objects is the live object count after the mutation committed.
	Objects int `json:"objects"`
}

// mutator returns the backend's mutation capability, or nil with the
// error already written when the backend cannot mutate. Unlike the
// read-side capability probes this does NOT unwrap decorators: a
// mutation must enter through the outermost layer so a caching front
// door observes it and invalidates — reaching past it to the raw index
// would be exactly the stale-answer bug the door exists to prevent.
func (s *Server) mutator(w http.ResponseWriter) Mutator {
	b := s.serving(w)
	if b == nil {
		return nil
	}
	m, ok := b.(Mutator)
	if !ok || !m.Mutable() {
		writeError(w, http.StatusNotImplemented, errors.New("backend is read-only"))
		return nil
	}
	return m
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	m := s.mutator(w)
	if m == nil {
		return
	}
	var req ObjectJSON
	if !decodeBody(w, r, &req) {
		return
	}
	o, err := requestObject(req, s.backend().Dim(), false)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("building object: %w", err))
		return
	}
	if err := m.Insert(o); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, core.ErrDuplicateID):
			status = http.StatusConflict
		case errors.Is(err, core.ErrIndexDimMix):
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, MutationResponse{ID: o.ID(), Objects: s.backend().Len()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	m := s.mutator(w)
	if m == nil {
		return
	}
	var req DeleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ok, err := m.Delete(req.ID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("object %d not found", req.ID))
		return
	}
	writeJSON(w, http.StatusOK, MutationResponse{ID: req.ID, Deleted: true, Objects: s.backend().Len()})
}
