(** Concretizer backend selection and the clause backend's CEGAR loop.

    Two backends implement {!Concretizer_intf.S}:

    - {!Greedy_backend} — the paper's greedy fixed point
      ({!Concretizer.concretize}); on failure its decision trace is
      reported as a pseudo-core (the blocked decision path).
    - {!Clause_backend} — the complete solver: counterexample-guided
      abstraction refinement over the {!Clauses} encoding. Round 0 is a
      pure greedy run (so whenever greedy succeeds both backends return
      byte-identical results — greedy success is preference-optimal by
      construction). On greedy failure the problem is encoded and solved
      with {!Solver}; each model is validated by replaying it through
      the greedy oracle with forced decisions, oracle rejections become
      blocking clauses, and encoding-UNSAT yields a minimized,
      human-readable unsat core. The returned typed error is always the
      first greedy run's (the encoding is a relaxation, so
      encoding-UNSAT implies greedy-UNSAT). *)

type t = Concretizer_intf.backend = Greedy | Clauses

val to_string : t -> string
val of_string : string -> t option
val all : t list

module Greedy_backend : Concretizer_intf.S
module Clause_backend : Concretizer_intf.S

val solve :
  t ->
  Concretizer_intf.ctx ->
  Ospack_spec.Ast.t ->
  (Ospack_spec.Concrete.t, Cerror.t) result

val solve_full :
  t -> Concretizer_intf.ctx -> Ospack_spec.Ast.t -> Concretizer_intf.outcome

val solve_cached :
  ?cache:Ccache.t ->
  ?installed:(Ospack_spec.Ast.t -> Ospack_spec.Concrete.t option) ->
  t ->
  Concretizer_intf.ctx ->
  Ospack_spec.Ast.t ->
  (Ospack_spec.Concrete.t, Cerror.t) result
(** {!solve} through the concretization cache, in two layers:

    + {b store-aware reuse} — when [installed] is given, an installed
      concrete spec satisfying the abstract query is returned as-is
      instead of re-solving ([--reuse]; the callback is typically
      [Database.find_satisfying] plus the §3.2.3 newest-version
      tie-break). Spanned as [ccache.reuse_lookup], counted as
      [ccache.reuse_hits].
    + {b whole-query memo} — a hit under the current context fingerprint
      returns the stored concretization ([ccache.lookup] span,
      [ccache.hits]/[ccache.misses]); a miss is solved by [backend] and
      stored back on success.

    Caching is observationally invisible: a hit is byte-identical to the
    cold result, because solving is deterministic and every input is
    covered by the key or the fingerprint. Reuse results are not stored
    (they reflect the store, not the current packages). *)

val explanation :
  t -> Concretizer_intf.outcome -> Cerror.explanation option
(** The rendered conflict explanation of a failed outcome ([None] on
    success): the unsat core or blocked decision path with the typed
    error. *)
