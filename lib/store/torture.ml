module Vfs = Ospack_vfs.Vfs
module Concrete = Ospack_spec.Concrete
module Obs = Ospack_obs.Obs

(* Crash-consistency torture for the store, on Vfs.crash_sweep: each
   kill point's crashed filesystem is recovered by a fresh installer and
   held to the three store invariants below. *)

type report = {
  tr_jobs : int;
  tr_specs : int;
  tr_barriers : int;
  tr_kills : int;
  tr_orphans : int;
  tr_lost_nodes : int;
}

let report_to_string r =
  Printf.sprintf
    "torture -j%d: %d spec%s, %d barriers, %d kill point%s survived (%d \
     orphan prefix%s recovered, %d index record%s lost and reinstalled)"
    r.tr_jobs r.tr_specs
    (if r.tr_specs = 1 then "" else "s")
    r.tr_barriers r.tr_kills
    (if r.tr_kills = 1 then "" else "s")
    r.tr_orphans
    (if r.tr_orphans = 1 then "" else "es")
    r.tr_lost_nodes
    (if r.tr_lost_nodes = 1 then "" else "s")

let ( let* ) = Result.bind

(* One line per node of the store tree: kind, path, and payload (file
   content / symlink target), so two snapshots compare with (=). *)
let snapshot_tree vfs root =
  Vfs.walk vfs root
  |> List.map (fun (p, k) ->
         match k with
         | Vfs.File -> (
             match Vfs.read_file vfs p with
             | Ok c -> ("file " ^ p, c)
             | Error e ->
                 ("file " ^ p, "<unreadable: " ^ Vfs.error_to_string e ^ ">"))
         | Vfs.Dir -> ("dir " ^ p, "")
         | Vfs.Symlink -> (
             match Vfs.readlink vfs p with
             | Ok t -> ("symlink " ^ p, t)
             | Error e ->
                 ("symlink " ^ p, "<unreadable: " ^ Vfs.error_to_string e ^ ">")))

let snapshot_index db =
  Database.all db
  |> List.map (fun r -> Ospack_json.Json.to_string (Database.record_to_json r))

let under path ~prefix =
  path = prefix || String.starts_with ~prefix:(prefix ^ "/") path

let run ?(jobs = 1) ?every ?config ~repo ~compilers specs =
  if jobs < 1 then Error "torture: jobs must be >= 1"
  else if specs = [] then Error "torture: no specs to install"
  else
    let installer ?(obs = Obs.disabled) vfs =
      Installer.create ?config ~obs ~vfs ~repo ~compilers ()
    in
    (* -j1 uses the serial [install] path (one spec at a time, exactly
       the CLI's loop); -jN uses the virtual-time parallel scheduler. *)
    let install_all inst =
      if jobs = 1 then
        List.fold_left
          (fun acc c ->
            let* () = acc in
            match Installer.install inst c with
            | Ok _ -> Ok ()
            | Error e -> Error e)
          (Ok ()) specs
      else
        match Installer.install_parallel inst ~jobs specs with
        | Error e -> Error e
        | Ok r when r.Installer.pr_failures <> [] ->
            Error (Installer.failures_to_string r.Installer.pr_failures)
        | Ok _ -> Ok ()
    in
    let snapshot inst =
      ( snapshot_index (Installer.database inst),
        snapshot_tree (Installer.vfs inst) (Installer.install_root inst) )
    in
    let run vfs =
      let inst = installer vfs in
      let* () = install_all inst in
      Ok (snapshot inst)
    in
    let check (ref_index, ref_tree) _k vfs =
      (* a fresh process opens the same store: load + crash recovery *)
      let recovery = Obs.create () in
      let reloaded = installer ~obs:recovery vfs in
      let root = Installer.install_root reloaded in
      let* (_ : int) =
        Result.map_error (fun e -> "reload: " ^ e)
          (Installer.load_index reloaded)
      in
      let loaded = Database.all (Installer.database reloaded) in
      let loaded_index = snapshot_index (Installer.database reloaded) in
      (* invariant 1: the reloaded store is a prefix of the completed one —
         every surviving record is byte-identical to the reference's *)
      let* () =
        match
          List.find_opt (fun r -> not (List.mem r ref_index)) loaded_index
        with
        | Some r ->
            Error ("reloaded record is not part of the completed store: " ^ r)
        | None -> Ok ()
      in
      (* invariant 2: no unindexed orphans — after recovery, every file
         and symlink under the store (outside the db's own bookkeeping)
         belongs to a loaded record's prefix *)
      let owned p =
        under p ~prefix:(root ^ "/.spack-db")
        || List.exists
             (fun (r : Database.record) -> under p ~prefix:r.Database.r_prefix)
             loaded
      in
      let* () =
        match
          List.find_opt
            (fun (p, kind) -> kind <> Vfs.Dir && not (owned p))
            (Vfs.walk vfs root)
        with
        | Some (p, _) -> Error ("unindexed orphan survived recovery: " ^ p)
        | None -> Ok ()
      in
      (* invariant 3: the recovered store completes to exactly the
         reference — same index, same bytes *)
      let* () =
        Result.map_error (fun e -> "reinstall failed: " ^ e)
          (install_all reloaded)
      in
      let index, tree = snapshot reloaded in
      if index <> ref_index then
        Error "completed index diverged from the reference run"
      else if tree <> ref_tree then
        Error "completed store bytes diverged from the reference run"
      else
        Ok
          ( Obs.counter recovery "db.recovered_orphans",
            List.length ref_index - List.length loaded_index )
    in
    match Vfs.crash_sweep ?every ~world:Vfs.create ~run check with
    | Error e -> Error ("torture: " ^ e)
    | Ok (barriers, kills) ->
        Ok
          {
            tr_jobs = jobs;
            tr_specs = List.length specs;
            tr_barriers = barriers;
            tr_kills = List.length kills;
            tr_orphans = List.fold_left (fun n (o, _) -> n + o) 0 kills;
            tr_lost_nodes = List.fold_left (fun n (_, l) -> n + l) 0 kills;
          }
