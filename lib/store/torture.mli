(** Crash-consistency torture for the store.

    The harness proves the sharded index's durability story by killing an
    install at {e every} write barrier with {!Ospack_vfs.Vfs.crash_sweep}
    and checking that recovery restores the invariants. At each kill
    point a fresh installer opens the crashed store ({!Installer.load_index}:
    shard merge + pending-marker recovery) and three invariants are
    checked — the reloaded index is a subset of the completed run's
    records (prefix-of-completed-store), no file or symlink outside
    [.spack-db] survives outside a loaded record's prefix (no unindexed
    orphans), and re-running the install converges to an index and store
    tree byte-identical to the reference.

    Any violation aborts with an [Error] naming the kill point. *)

type report = {
  tr_jobs : int;
  tr_specs : int;
  tr_barriers : int;  (** write barriers in the reference run *)
  tr_kills : int;  (** kill points exercised *)
  tr_orphans : int;  (** orphan prefixes recovery deleted, summed over kills *)
  tr_lost_nodes : int;
      (** index records lost to crashes (and reinstalled), summed over kills *)
}

val report_to_string : report -> string

val run :
  ?jobs:int ->
  ?every:int ->
  ?config:Ospack_config.Config.t ->
  repo:Ospack_package.Repository.t ->
  compilers:Ospack_config.Compilers.t ->
  Ospack_spec.Concrete.t list ->
  (report, string) result
(** Torture the install of [specs]. [jobs] (default 1) selects the serial
    {!Installer.install} path or the [-jN] parallel scheduler; [every]
    (default 1) kills at every [every]-th barrier — a sampling knob for
    smoke gates; [config] is passed through to each installer (externals
    etc.). *)
