(** The Merkle-fingerprinted concretization cache.

    Concretization is ospack's hottest non-build path (paper §3.2: the
    greedy fixed point over the whole DAG), and its result is a pure
    function of (abstract spec, package universe, compiler registry, site
    configuration). This module memoizes that function: entries are keyed
    by the canonical printed form of the abstract spec ({!key_of}) and
    validated in two tiers.

    {b Base fingerprint} — a SHA-256 over the inputs shared by every
    entry: the algorithm-version+backend tag, repository name, toolchain
    registry, and configuration key/value store. A base mismatch (new
    algorithm, different backend, config or compiler change) discards the
    whole stored cache.

    {b Per-entry Merkle fingerprint} — a SHA-256 over the identity hashes
    ({!Ospack_package.Package.identity_string}) of exactly the packages
    in the entry's dependency closure, plus the provider identities of
    every virtual interface the closure uses (a new, removed, or edited
    provider can flip provider selection even when the stored DAG never
    contained it). Editing one recipe therefore invalidates only the
    entries whose closure can see the edit; unrelated entries survive.
    [ccache.invalidations] counts {e evicted entries} — per entry, under
    wholesale and targeted invalidation alike.

    The cornerstone invariant is that caching is observationally
    invisible: a cache hit returns a value byte-identical to what a cold
    concretization would have produced. That holds because concretization
    is deterministic and every input is covered by the key, the base
    fingerprint, or the entry fingerprint — a stale entry is never
    trusted.

    Persistence is sharded and incremental. The cache lives in a
    directory of shard files, [<dir>/<2-hex>.json], one per first byte
    of the SHA-256 of an entry's key; each is an ordinary cache
    document, so {!of_string}'s validation is the only one. Each entry's Merkle
    fingerprint is computed once, at {!store} (or when a load validates
    it), and its JSON text is rendered at most once; {!save} splices
    those texts into the shards changed since the last save and writes
    only those, so its cost follows what changed, not the cache's size.
    There is no manifest: entries are never deleted one at a time, so
    the directory listing is the truth. Every shard goes through
    {!Ospack_vfs.Vfs.write_atomic}, so a reader sees each shard old or
    new, never torn. *)

type t

type context
(** The validation context: base fingerprint plus memoized per-package
    identity hashes and the provider index of the repository. Build one
    per (repo, compilers, config, backend) and share it across cache
    operations. *)

val algorithm_version : string
(** Bumped whenever the concretizer's semantics change; part of the base
    fingerprint so an upgraded binary never trusts an old cache. *)

val context :
  ?backend:string ->
  repo:Ospack_package.Repository.t ->
  compilers:Ospack_config.Compilers.t ->
  config:Ospack_config.Config.t ->
  unit ->
  context
(** Build a validation context. Policy is a pure function of the
    configuration, so covering the config covers the policy. [backend]
    (default ["greedy"]) extends the algorithm tag with the selected
    concretizer backend, so entries produced by one backend are never
    served to another. *)

val base_fingerprint : context -> string
(** The base fingerprint (64 hex chars) — everything shared by all
    entries; package recipes are covered per entry instead. *)

val entry_fingerprint : context -> Ospack_spec.Concrete.t -> string
(** The Merkle fingerprint (64 hex chars) a concrete DAG must hash to
    for an entry holding it to be valid under [context]: base
    fingerprint, identity hash of each closure package, and provider
    identities of each virtual interface used. *)

val create : ?obs:Ospack_obs.Obs.t -> context:context -> unit -> t
(** An empty in-memory cache bound to a validation context. *)

val context_of : t -> context

val key_of : Ospack_spec.Ast.t -> string
(** The cache key: the canonical printed form of the abstract spec
    ({!Ospack_spec.Printer.to_string} — deps sorted, version lists
    normalized). Specs that parse to the same AST share a key. *)

val lookup : t -> Ospack_spec.Ast.t -> Ospack_spec.Concrete.t option
(** Counts [ccache.hits] / [ccache.misses] on the cache's obs sink. *)

val store : t -> Ospack_spec.Ast.t -> Ospack_spec.Concrete.t -> unit
(** Record an (abstract, concrete) pair. *)

val length : t -> int
(** Number of stored entries. *)

val to_json : t -> Ospack_json.Json.t
(** Serialized form: format version, base fingerprint, and one
    [{spec; merkle; concrete}] object per entry, sorted by spec. *)

val to_string : t -> string
(** [Json.to_string ~indent:2 (to_json t)], byte for byte, spliced from
    the memoized entry texts: the export {!of_string} reads back. *)

val of_string :
  ?obs:Ospack_obs.Obs.t -> context:context -> string -> t
(** Rebuild a cache from a serialized document (an export or a shard
    file), {e validating} it against the current context. Unparsable
    text, or a format or base mismatch, discards every stored entry;
    otherwise each entry is revalidated individually and kept iff its
    recorded Merkle fingerprint still matches its DAG under [context].
    Every evicted entry counts one [ccache.invalidations] (unparsable
    text counts one); malformed entries are dropped (and counted)
    without poisoning their neighbours. Never an error, never a stale
    entry. Every entry is unsaved: the next {!save} persists them all. *)

val load :
  ?obs:Ospack_obs.Obs.t ->
  context:context ->
  Ospack_vfs.Vfs.t ->
  path:string ->
  t
(** Merge every [*.json] shard in the directory [path], each validated
    as {!of_string} validates, after removing the [.tmp] files a killed
    {!save} left ({!Ospack_vfs.Vfs.sweep_tmp}); a missing directory is a
    plain empty cache. An entry filed under the wrong shard counts as
    evicted. A shard that lost any entry is rewritten (or removed, once
    empty) by the next {!save}, so each loss is counted by one load
    only. *)

val save : t -> Ospack_vfs.Vfs.t -> path:string -> (unit, string) result
(** Persist the shards changed since the last {!save} (or {!load}) into
    the directory [path], in sorted shard order, each with
    {!Ospack_vfs.Vfs.write_atomic}: two write barriers per changed
    shard, none when nothing changed. *)
