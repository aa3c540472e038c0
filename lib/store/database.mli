(** The install database: every installed configuration, addressed by its
    sub-DAG hash (paper §3.4.2).

    Each record's spec is the concrete sub-DAG rooted at the installed
    package, so two top-level installs that share a sub-DAG (the paper's
    Fig. 9: mpileaks with mpich, then with openmpi) share the records —
    and hence the installs — of the common subtree. *)

type record = {
  r_spec : Ospack_spec.Concrete.t;  (** sub-DAG rooted at the package *)
  r_hash : string;  (** [Concrete.root_hash r_spec] *)
  r_prefix : string;
  r_explicit : bool;  (** installed by user request, not as a dependency *)
  r_external : bool;
      (** a vendor/site install outside the store (§4.4); never built and
          its prefix is never removed by uninstall *)
  r_build_seconds : float;  (** simulated build time (0 when reused) *)
}

type t

val create : unit -> t

val add : t -> record -> unit
(** Idempotent per hash (re-adding overwrites, preserving [r_explicit] if
    either record was explicit). *)

val find_by_hash : t -> string -> record option

val find_by_name : t -> string -> record list
(** Installed configurations of one package, sorted by hash. *)

val find_satisfying : t -> Ospack_spec.Ast.t -> record list
(** Records whose spec satisfies an abstract query — the reuse check of
    §3.2.3 ("Spack will use the previously-built installation"). *)

val all : t -> record list
(** Sorted by package name, then hash. *)

val count : t -> int

val shard_of_hash : string -> string
(** The index shard a hash belongs to: its first two hex characters. *)

val shard : t -> string -> record list
(** The records of one shard, in {!all}'s order ([all] filtered to the
    shard), without a scan of the whole database. *)

val shards : t -> string list
(** The non-empty shards, sorted. *)

val dependents_of : t -> string -> record list
(** Records whose spec contains the given hash as a {e non-root} node —
    the installs that would break if it were removed — in {!all}'s order.
    A walk up a reverse-dependency table kept by {!add} and {!remove}, so
    it relies on every record's dependencies being records too, as the
    installer and the index loader ensure. *)

val collectable : t -> record list
(** The implicit records no explicit record needs, in the order [gc]
    removes them: each is the first, in {!all}'s order, of the implicit
    records that no record left depends on. *)

val remove : t -> string -> (record, string) result
(** Remove by hash; fails with a message naming dependents when other
    installed records still depend on it. *)

val to_json : t -> Ospack_json.Json.t
(** Serialize the whole database (records sorted by name/hash) as one
    document of {!record_to_json} records. *)

val record_to_json : record -> Ospack_json.Json.t
(** One record in node form — the unit the sharded index persists: the
    record's own node ({!Ospack_spec.Concrete.entry_to_json}, dependencies
    by DAG hash), its hash, prefix, flags and build time. The sub-DAG below
    it is held once, by the records of its dependencies. *)

val records_of_json :
  (string * Ospack_json.Json.t) list -> (record list, string * string) result
(** The inverse of {!record_to_json} over a whole index: each item is a
    record tagged with where it was read from. Each spec is rebuilt from
    its node and its dependencies' records, memoised by hash, so a shared
    sub-DAG is built once; each record's hash is checked. An error gives
    the tag of the record that failed and why (a dangling dependency hash,
    a wrong hash, a malformed record). *)
