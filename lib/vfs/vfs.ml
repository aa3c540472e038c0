type kind = File | Dir | Symlink

type node =
  | Nfile of string ref
  | Ndir of (string, node) Hashtbl.t
  | Nlink of string

type error =
  | Not_found of string
  | Not_a_directory of string
  | Is_a_directory of string
  | Already_exists of string
  | Symlink_loop of string
  | Not_a_symlink of string
  | Fault_injected of { fi_op : string; fi_path : string }

let error_to_string = function
  | Not_found p -> Printf.sprintf "no such file or directory: %s" p
  | Not_a_directory p -> Printf.sprintf "not a directory: %s" p
  | Is_a_directory p -> Printf.sprintf "is a directory: %s" p
  | Already_exists p -> Printf.sprintf "file exists: %s" p
  | Symlink_loop p -> Printf.sprintf "too many levels of symbolic links: %s" p
  | Not_a_symlink p -> Printf.sprintf "not a symbolic link: %s" p
  | Fault_injected { fi_op; fi_path } ->
      Printf.sprintf "fault injected: %s %s" fi_op fi_path

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

type counters = {
  mutable stat : int;
  mutable read : int;
  mutable write : int;
  mutable mkdir : int;
  mutable link : int;
  mutable unlink : int;
  mutable readdir : int;
}

type fault_mode = Fail_op | Crash

type fault_plan = {
  fp_mode : fault_mode;
  fp_at : int list;
  fp_on_barrier : unit -> unit;
  mutable fp_crashed : bool;
}

type t = {
  root : (string, node) Hashtbl.t;
  c : counters;
  mutable barriers : int;
  mutable plan : fault_plan option;
}

let create () =
  {
    root = Hashtbl.create 16;
    c =
      { stat = 0; read = 0; write = 0; mkdir = 0; link = 0; unlink = 0;
        readdir = 0 };
    barriers = 0;
    plan = None;
  }

let counters fs = fs.c

let write_barriers fs = fs.barriers

let set_fault_plan fs ?(mode = Fail_op) ?(on_barrier = fun () -> ()) at =
  fs.barriers <- 0;
  fs.plan <-
    Some { fp_mode = mode; fp_at = at; fp_on_barrier = on_barrier;
           fp_crashed = false }

let clear_fault_plan fs = fs.plan <- None

(* A write barrier: the durability boundary before a write_file or rename
   mutates anything. The counter ticks on every barrier regardless of plan;
   with a plan armed, a planned barrier fails the op (before mutation), and
   in Crash mode every mutating op after the kill point fails too — the
   process is "dead", nothing further reaches the disk. *)
let barrier fs ~op ~path =
  fs.barriers <- fs.barriers + 1;
  match fs.plan with
  | None -> Ok ()
  | Some p ->
      p.fp_on_barrier ();
      if p.fp_crashed || List.mem fs.barriers p.fp_at then begin
        if p.fp_mode = Crash then p.fp_crashed <- true;
        Error (Fault_injected { fi_op = op; fi_path = Vpath.normalize path })
      end
      else Ok ()

let check_crashed fs ~op ~path =
  match fs.plan with
  | Some p when p.fp_crashed ->
      Error (Fault_injected { fi_op = op; fi_path = Vpath.normalize path })
  | _ -> Ok ()

let reset_counters fs =
  let c = fs.c in
  c.stat <- 0;
  c.read <- 0;
  c.write <- 0;
  c.mkdir <- 0;
  c.link <- 0;
  c.unlink <- 0;
  c.readdir <- 0

let max_hops = 40

let ( let* ) = Result.bind

(* Walk a path down from the root, following symlinks (including one at the
   final component when [follow_last]). Returns the canonical path and node.
   [hops] bounds total symlink traversals across the whole resolution. *)
let rec lookup fs ~follow_last ~hops path =
  let components = Vpath.split (Vpath.normalize path) in
  let rec step dir dir_path remaining hops =
    fs.c.stat <- fs.c.stat + 1;
    match remaining with
    | [] -> Ok (dir_path, Ndir dir, hops)
    | name :: rest -> (
        match Hashtbl.find_opt dir name with
        | None -> Error (Not_found (Vpath.join dir_path name))
        | Some node -> (
            let here = Vpath.join dir_path name in
            match node with
            | Ndir d -> step d here rest hops
            | Nfile _ when rest = [] -> Ok (here, node, hops)
            | Nfile _ -> Error (Not_a_directory here)
            | Nlink target ->
                if rest = [] && not follow_last then Ok (here, node, hops)
                else if hops <= 0 then Error (Symlink_loop here)
                else
                  let resolved_target =
                    Vpath.join (Vpath.dirname here) target
                  in
                  let full =
                    Vpath.normalize
                      (resolved_target ^ "/" ^ String.concat "/" rest)
                  in
                  lookup fs ~follow_last ~hops:(hops - 1) full))
  in
  step fs.root "/" components hops

let lookup_node fs ~follow_last path =
  match lookup fs ~follow_last ~hops:max_hops path with
  | Ok (p, n, _) -> Ok (p, n)
  | Error e -> Error e

(* Find (or create, with [create_missing]) the parent directory table of a
   path; returns the parent table and the final component name. *)
let parent_dir fs ~create_missing path =
  let norm = Vpath.normalize path in
  match List.rev (Vpath.split norm) with
  | [] -> Error (Is_a_directory "/")
  | name :: rev_parents ->
      let parents = List.rev rev_parents in
      let rec descend dir dir_path = function
        | [] -> Ok (dir, name)
        | c :: rest -> (
            fs.c.stat <- fs.c.stat + 1;
            let here = Vpath.join dir_path c in
            match Hashtbl.find_opt dir c with
            | Some (Ndir d) -> descend d here rest
            | Some (Nlink _) -> (
                (* resolve the link, then continue from there *)
                match lookup_node fs ~follow_last:true here with
                | Ok (_, Ndir d) -> descend d here rest
                | Ok _ -> Error (Not_a_directory here)
                | Error e -> Error e)
            | Some (Nfile _) -> Error (Not_a_directory here)
            | None ->
                if create_missing then begin
                  fs.c.mkdir <- fs.c.mkdir + 1;
                  let d = Hashtbl.create 8 in
                  Hashtbl.replace dir c (Ndir d);
                  descend d here rest
                end
                else Error (Not_found here))
      in
      descend fs.root "/" parents

let mkdir_p fs path =
  let* () = check_crashed fs ~op:"mkdir" ~path in
  if Vpath.normalize path = "/" then Ok ()
  else
    let* dir, name = parent_dir fs ~create_missing:true path in
    match Hashtbl.find_opt dir name with
    | Some (Ndir _) -> Ok ()
    | Some _ -> Error (Not_a_directory (Vpath.normalize path))
    | None ->
        fs.c.mkdir <- fs.c.mkdir + 1;
        Hashtbl.replace dir name (Ndir (Hashtbl.create 8));
        Ok ()

let write_file fs path content =
  let* () = barrier fs ~op:"write" ~path in
  let* dir, name = parent_dir fs ~create_missing:true path in
  fs.c.write <- fs.c.write + 1;
  match Hashtbl.find_opt dir name with
  | Some (Ndir _) -> Error (Is_a_directory (Vpath.normalize path))
  | Some (Nfile r) ->
      r := content;
      Ok ()
  | Some (Nlink _) -> (
      match lookup_node fs ~follow_last:true path with
      | Ok (_, Nfile r) ->
          r := content;
          Ok ()
      | Ok (p, Ndir _) -> Error (Is_a_directory p)
      | Ok (p, Nlink _) -> Error (Symlink_loop p)
      | Error (Not_found _) ->
          (* dangling link: write creates the target *)
          let* target =
            match Hashtbl.find_opt dir name with
            | Some (Nlink t) -> Ok (Vpath.join (Vpath.dirname (Vpath.normalize path)) t)
            | _ -> Error (Not_found path)
          in
          let* tdir, tname = parent_dir fs ~create_missing:true target in
          Hashtbl.replace tdir tname (Nfile (ref content));
          Ok ()
      | Error e -> Error e)
  | None ->
      Hashtbl.replace dir name (Nfile (ref content));
      Ok ()

let read_file fs path =
  fs.c.read <- fs.c.read + 1;
  match lookup_node fs ~follow_last:true path with
  | Ok (_, Nfile r) -> Ok !r
  | Ok (p, Ndir _) -> Error (Is_a_directory p)
  | Ok (p, Nlink _) -> Error (Symlink_loop p)
  | Error e -> Error e

let symlink fs ~target ~link =
  let* () = check_crashed fs ~op:"symlink" ~path:link in
  let* dir, name = parent_dir fs ~create_missing:true link in
  fs.c.link <- fs.c.link + 1;
  match Hashtbl.find_opt dir name with
  | Some _ -> Error (Already_exists (Vpath.normalize link))
  | None ->
      Hashtbl.replace dir name (Nlink target);
      Ok ()

let readlink fs path =
  match lookup_node fs ~follow_last:false path with
  | Ok (_, Nlink target) -> Ok target
  | Ok (p, _) -> Error (Not_a_symlink p)
  | Error e -> Error e

let resolve fs path =
  match lookup fs ~follow_last:true ~hops:max_hops path with
  | Ok (p, _, _) -> Ok p
  | Error e -> Error e

let kind_of fs path =
  match lookup_node fs ~follow_last:false path with
  | Ok (_, Nfile _) -> Some File
  | Ok (_, Ndir _) -> Some Dir
  | Ok (_, Nlink _) -> Some Symlink
  | Error _ -> None

let exists fs path = Result.is_ok (resolve fs path)

let is_dir fs path =
  match lookup_node fs ~follow_last:true path with
  | Ok (_, Ndir _) -> true
  | _ -> false

let is_file fs path =
  match lookup_node fs ~follow_last:true path with
  | Ok (_, Nfile _) -> true
  | _ -> false

let ls fs path =
  fs.c.readdir <- fs.c.readdir + 1;
  match lookup_node fs ~follow_last:true path with
  | Ok (_, Ndir d) ->
      Ok (Hashtbl.fold (fun k _ acc -> k :: acc) d [] |> List.sort compare)
  | Ok (p, _) -> Error (Not_a_directory p)
  | Error e -> Error e

let walk fs path =
  let rec go acc dir_path d =
    let entries =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) d []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    List.fold_left
      (fun acc (name, node) ->
        let here = Vpath.join dir_path name in
        match node with
        | Nfile _ -> (here, File) :: acc
        | Nlink _ -> (here, Symlink) :: acc
        | Ndir d' -> go ((here, Dir) :: acc) here d')
      acc entries
  in
  match lookup_node fs ~follow_last:true path with
  | Ok (p, Ndir d) -> List.rev (go [] p d)
  | _ -> []

let rename fs ~src ~dst =
  let* () = barrier fs ~op:"rename" ~path:dst in
  let* sdir, sname = parent_dir fs ~create_missing:false src in
  match Hashtbl.find_opt sdir sname with
  | None -> Error (Not_found (Vpath.normalize src))
  | Some node ->
      let* ddir, dname = parent_dir fs ~create_missing:true dst in
      let* () =
        match Hashtbl.find_opt ddir dname with
        | None -> Ok ()
        | Some (Ndir d) -> (
            match node with
            | Ndir _ when Hashtbl.length d = 0 -> Ok ()
            | _ -> Error (Is_a_directory (Vpath.normalize dst)))
        | Some _ -> (
            match node with
            | Ndir _ -> Error (Not_a_directory (Vpath.normalize dst))
            | _ -> Ok ())
      in
      fs.c.write <- fs.c.write + 1;
      fs.c.unlink <- fs.c.unlink + 1;
      Hashtbl.remove sdir sname;
      Hashtbl.replace ddir dname node;
      Ok ()

let remove fs ?(recursive = false) path =
  let* () = check_crashed fs ~op:"remove" ~path in
  let* dir, name = parent_dir fs ~create_missing:false path in
  fs.c.unlink <- fs.c.unlink + 1;
  match Hashtbl.find_opt dir name with
  | None -> Error (Not_found (Vpath.normalize path))
  | Some (Ndir d) when Hashtbl.length d > 0 && not recursive ->
      Error (Already_exists (Vpath.normalize path))
  | Some _ ->
      Hashtbl.remove dir name;
      Ok ()

(* ------------------------------------------------------------------ *)
(* The persistence protocol: the one place that knows the [.tmp] name
   and the write-then-rename order. *)

let tmp_suffix = ".tmp"

let write_atomic fs path content =
  let tmp = path ^ tmp_suffix in
  let* () = write_file fs tmp content in
  rename fs ~src:tmp ~dst:path

(* Removal is not a write barrier, so a sweep never shifts the kill
   points of a crash sweep over the code that calls it. *)
let sweep_tmp fs dir =
  let* names = ls fs dir in
  List.fold_left
    (fun acc name ->
      let* kept = acc in
      if not (Filename.check_suffix name tmp_suffix) then Ok (name :: kept)
      else
        match remove fs (Vpath.join dir name) with
        | Ok () | Error (Not_found _) -> Ok kept
        | Error e -> Error e)
    (Ok []) names
  |> Result.map List.rev

(* Determinism does the heavy lifting: before the armed barrier a killed
   run is byte-for-byte the reference run, so barrier k is always reached
   and the crashed filesystem is exactly "the reference run, dead at its
   k-th durability boundary". *)
let crash_sweep ?(every = 1) ~world ~run check =
  if every < 1 then Error "every must be >= 1"
  else
    let fs = world () in
    set_fault_plan fs [];
    let reference = run fs in
    let barriers = write_barriers fs in
    clear_fault_plan fs;
    match reference with
    | Error e -> Error ("reference run failed: " ^ e)
    | Ok reference ->
        let rec go k acc =
          if k > barriers then Ok (barriers, List.rev acc)
          else
            let fs = world () in
            set_fault_plan fs ~mode:Crash [ k ];
            let killed = run fs in
            clear_fault_plan fs;
            let checked =
              match killed with
              | Ok _ -> Error "the run survived an armed crash plan"
              | Error _ -> check reference k fs
            in
            match checked with
            | Error e -> Error (Printf.sprintf "kill point %d: %s" k e)
            | Ok r -> go (k + every) (r :: acc)
        in
        go 1 []
