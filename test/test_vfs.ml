(* The virtual filesystem: POSIX-ish semantics, symlink resolution, walk,
   removal, operation counters, fault injection, and the persistence
   protocol (atomic write, tmp sweep, crash sweep). *)

open Ospack_vfs

let err = Alcotest.testable Vfs.pp_error ( = )

let vpath_cases () =
  Alcotest.(check string) "normalize dots" "/a/b" (Vpath.normalize "/a/./b/");
  Alcotest.(check string) "normalize dotdot" "/a/c" (Vpath.normalize "/a/b/../c");
  Alcotest.(check string) "dotdot above root" "/x" (Vpath.normalize "/../../x");
  Alcotest.(check string) "duplicate slashes" "/a/b" (Vpath.normalize "//a///b");
  Alcotest.(check string) "join relative" "/a/b/c" (Vpath.join "/a/b" "c");
  Alcotest.(check string) "join absolute" "/c" (Vpath.join "/a/b" "/c");
  Alcotest.(check string) "join with updir" "/a/c" (Vpath.join "/a/b" "../c");
  Alcotest.(check string) "dirname" "/a" (Vpath.dirname "/a/b");
  Alcotest.(check string) "dirname of root" "/" (Vpath.dirname "/");
  Alcotest.(check string) "basename" "b" (Vpath.basename "/a/b")

let file_roundtrip () =
  let fs = Vfs.create () in
  Alcotest.(check (result unit err)) "write" (Ok ())
    (Vfs.write_file fs "/opt/pkg/lib/libfoo.so" "content");
  Alcotest.(check (result string err)) "read back" (Ok "content")
    (Vfs.read_file fs "/opt/pkg/lib/libfoo.so");
  Alcotest.(check (result unit err)) "overwrite" (Ok ())
    (Vfs.write_file fs "/opt/pkg/lib/libfoo.so" "v2");
  Alcotest.(check (result string err)) "overwritten" (Ok "v2")
    (Vfs.read_file fs "/opt/pkg/lib/libfoo.so");
  Alcotest.(check bool) "parents created" true (Vfs.is_dir fs "/opt/pkg");
  Alcotest.(check bool) "missing file" false (Vfs.exists fs "/opt/pkg/nope")

let error_cases () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/a/file" "x");
  Alcotest.(check (result string err)) "read missing"
    (Error (Vfs.Not_found "/a/nope"))
    (Vfs.read_file fs "/a/nope");
  Alcotest.(check bool) "file in the way of mkdir" true
    (Result.is_error (Vfs.mkdir_p fs "/a/file/sub"));
  Alcotest.(check bool) "write through a file component" true
    (Result.is_error (Vfs.write_file fs "/a/file/sub/x" "y"));
  Alcotest.(check bool) "read a directory" true
    (Result.is_error (Vfs.read_file fs "/a"));
  Alcotest.(check bool) "write over a directory" true
    (Result.is_error (Vfs.write_file fs "/a" "y"))

let symlink_cases () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/opt/real/bin/tool" "binary");
  Alcotest.(check (result unit err)) "make link" (Ok ())
    (Vfs.symlink fs ~target:"/opt/real" ~link:"/views/tool");
  Alcotest.(check (result string err)) "read through link" (Ok "binary")
    (Vfs.read_file fs "/views/tool/bin/tool");
  Alcotest.(check (result string err)) "readlink" (Ok "/opt/real")
    (Vfs.readlink fs "/views/tool");
  Alcotest.(check (result string err)) "resolve canonicalizes"
    (Ok "/opt/real/bin/tool")
    (Vfs.resolve fs "/views/tool/bin/tool");
  (* relative link targets resolve against the link's directory *)
  ignore (Vfs.symlink fs ~target:"real/bin" ~link:"/opt/alias");
  Alcotest.(check (result string err)) "relative target" (Ok "binary")
    (Vfs.read_file fs "/opt/alias/tool");
  (* links may dangle; resolution reports the missing target *)
  ignore (Vfs.symlink fs ~target:"/nowhere" ~link:"/views/dangling");
  Alcotest.(check bool) "dangling does not resolve" false
    (Vfs.exists fs "/views/dangling");
  Alcotest.(check bool) "kind_of sees the link" true
    (Vfs.kind_of fs "/views/dangling" = Some Vfs.Symlink);
  Alcotest.(check bool) "cannot overwrite with a link" true
    (Result.is_error (Vfs.symlink fs ~target:"/x" ~link:"/views/tool"))

let symlink_loops () =
  let fs = Vfs.create () in
  ignore (Vfs.symlink fs ~target:"/b" ~link:"/a");
  ignore (Vfs.symlink fs ~target:"/a" ~link:"/b");
  match Vfs.resolve fs "/a" with
  | Error (Vfs.Symlink_loop _) -> ()
  | Error e -> Alcotest.failf "expected loop, got %s" (Vfs.error_to_string e)
  | Ok p -> Alcotest.failf "resolved a loop to %s" p

let ls_and_walk () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/p/bin/tool" "x");
  ignore (Vfs.write_file fs "/p/lib/libx.so" "y");
  ignore (Vfs.symlink fs ~target:"/p/lib/libx.so" ~link:"/p/lib/libx.so.1");
  Alcotest.(check (result (slist string compare) err)) "ls" (Ok [ "bin"; "lib" ])
    (Vfs.ls fs "/p");
  let walked = Vfs.walk fs "/p" in
  Alcotest.(check int) "walk entries" 5 (List.length walked);
  Alcotest.(check bool) "walk reports symlink kind" true
    (List.mem ("/p/lib/libx.so.1", Vfs.Symlink) walked);
  Alcotest.(check int) "walk of a file is empty" 0
    (List.length (Vfs.walk fs "/p/bin/tool"))

let removal () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/p/a" "1");
  ignore (Vfs.write_file fs "/p/d/b" "2");
  Alcotest.(check bool) "refuse non-empty dir" true
    (Result.is_error (Vfs.remove fs "/p"));
  Alcotest.(check (result unit err)) "recursive remove" (Ok ())
    (Vfs.remove fs ~recursive:true "/p");
  Alcotest.(check bool) "gone" false (Vfs.exists fs "/p");
  Alcotest.(check bool) "remove missing errors" true
    (Result.is_error (Vfs.remove fs "/p"));
  (* removing a symlink leaves its target *)
  ignore (Vfs.write_file fs "/t/file" "x");
  ignore (Vfs.symlink fs ~target:"/t/file" ~link:"/l");
  ignore (Vfs.remove fs "/l");
  Alcotest.(check bool) "target survives" true (Vfs.exists fs "/t/file")

let counters () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/deep/a/b/c/file" "x");
  let c = Vfs.counters fs in
  Alcotest.(check bool) "writes counted" true (c.Vfs.write > 0);
  Alcotest.(check bool) "mkdirs counted" true (c.Vfs.mkdir >= 4);
  Alcotest.(check bool) "stats counted" true (c.Vfs.stat > 0);
  Vfs.reset_counters fs;
  Alcotest.(check int) "reset" 0 (Vfs.counters fs).Vfs.write

(* property: apply writes in order; the last successful write per path is
   what reads back *)
let arb_files =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 20)
        (pair
           (map
              (fun parts -> "/" ^ String.concat "/" parts)
              (list_size (int_range 1 4)
                 (oneofl [ "a"; "b"; "c"; "dir"; "f" ])))
           (string_size ~gen:printable (int_bound 20))))
  in
  QCheck.make gen

let rename_cases () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/db/cache.json.tmp" "v1");
  (* plain move, parents created on demand *)
  Alcotest.(check (result unit err)) "move" (Ok ())
    (Vfs.rename fs ~src:"/db/cache.json.tmp" ~dst:"/db/deep/cache.json");
  Alcotest.(check (result string err)) "content travels" (Ok "v1")
    (Vfs.read_file fs "/db/deep/cache.json");
  Alcotest.(check bool) "source gone" false (Vfs.exists fs "/db/cache.json.tmp");
  (* the write-then-rename pattern: rename atomically replaces the
     destination, readers see old or new content, never a torn file *)
  ignore (Vfs.write_file fs "/db/deep/cache.json.tmp" "v2");
  Alcotest.(check (result unit err)) "replace existing" (Ok ())
    (Vfs.rename fs ~src:"/db/deep/cache.json.tmp" ~dst:"/db/deep/cache.json");
  Alcotest.(check (result string err)) "replaced content" (Ok "v2")
    (Vfs.read_file fs "/db/deep/cache.json");
  (* error contract mirrors POSIX rename(2) *)
  Alcotest.(check (result unit err)) "missing source"
    (Error (Vfs.Not_found "/db/nope"))
    (Vfs.rename fs ~src:"/db/nope" ~dst:"/db/x");
  ignore (Vfs.mkdir_p fs "/db/dir");
  Alcotest.(check bool) "file over directory refused" true
    (Result.is_error
       (Vfs.rename fs ~src:"/db/deep/cache.json" ~dst:"/db/dir"));
  Alcotest.(check (result string err)) "refused rename left source intact"
    (Ok "v2")
    (Vfs.read_file fs "/db/deep/cache.json");
  (* a directory can move, and may land on an empty directory *)
  ignore (Vfs.write_file fs "/db/dir/f" "x");
  ignore (Vfs.mkdir_p fs "/db/empty");
  Alcotest.(check (result unit err)) "directory over empty directory" (Ok ())
    (Vfs.rename fs ~src:"/db/dir" ~dst:"/db/empty");
  Alcotest.(check (result string err)) "tree travels" (Ok "x")
    (Vfs.read_file fs "/db/empty/f");
  Alcotest.(check bool) "directory over file refused" true
    (Result.is_error (Vfs.rename fs ~src:"/db/empty" ~dst:"/db/deep/cache.json"))

(* --- deterministic fault injection --- *)

let fault_barrier_counting () =
  let fs = Vfs.create () in
  Alcotest.(check int) "fresh fs has crossed no barriers" 0
    (Vfs.write_barriers fs);
  ignore (Vfs.write_file fs "/a" "1") (* barrier 1 *);
  ignore (Vfs.mkdir_p fs "/d") (* not a barrier *);
  ignore (Vfs.rename fs ~src:"/a" ~dst:"/d/a") (* barrier 2 *);
  ignore (Vfs.read_file fs "/d/a") (* not a barrier *);
  Alcotest.(check int) "writes and renames tick; reads and mkdirs do not" 2
    (Vfs.write_barriers fs);
  (* arming a plan resets the counter; the on_barrier hook mirrors every
     tick (how tests bridge the counter into an obs sink without vfs
     depending on obs) *)
  let ticks = ref 0 in
  Vfs.set_fault_plan fs ~on_barrier:(fun () -> incr ticks) [];
  Alcotest.(check int) "armed plan resets" 0 (Vfs.write_barriers fs);
  ignore (Vfs.write_file fs "/b" "2");
  ignore (Vfs.write_file fs "/c" "3");
  Alcotest.(check int) "hook fired per barrier" 2 !ticks;
  Alcotest.(check int) "counter agrees" 2 (Vfs.write_barriers fs);
  Vfs.clear_fault_plan fs;
  ignore (Vfs.write_file fs "/e" "4");
  Alcotest.(check int) "counter still ticks unarmed" 3 (Vfs.write_barriers fs)

let fault_fail_op () =
  let fs = Vfs.create () in
  Vfs.set_fault_plan fs [ 2; 3 ];
  Alcotest.(check (result unit err)) "barrier 1 passes" (Ok ())
    (Vfs.write_file fs "/w/one" "1");
  (* a planned write fails before mutating anything *)
  Alcotest.(check (result unit err)) "barrier 2 write fails"
    (Error (Vfs.Fault_injected { fi_op = "write"; fi_path = "/w/two" }))
    (Vfs.write_file fs "/w/two" "2");
  Alcotest.(check bool) "failed write left nothing" false
    (Vfs.exists fs "/w/two");
  (* a planned rename fails naming the destination, and moves nothing *)
  Alcotest.(check (result unit err)) "barrier 3 rename fails"
    (Error (Vfs.Fault_injected { fi_op = "rename"; fi_path = "/w/moved" }))
    (Vfs.rename fs ~src:"/w/one" ~dst:"/w/moved");
  Alcotest.(check (result string err)) "refused rename left source intact"
    (Ok "1")
    (Vfs.read_file fs "/w/one");
  (* Fail_op faults are transient: the plan exhausted, later ops succeed *)
  Alcotest.(check (result unit err)) "barrier 4 passes" (Ok ())
    (Vfs.rename fs ~src:"/w/one" ~dst:"/w/moved");
  Alcotest.(check int) "four barriers crossed" 4 (Vfs.write_barriers fs)

let fault_crash_mode () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/pre/keep" "safe");
  Vfs.set_fault_plan fs ~mode:Vfs.Crash [ 2 ];
  Alcotest.(check (result unit err)) "barrier 1 passes" (Ok ())
    (Vfs.write_file fs "/w/a" "1");
  Alcotest.(check (result unit err)) "barrier 2 is the kill"
    (Error (Vfs.Fault_injected { fi_op = "write"; fi_path = "/w/b" }))
    (Vfs.write_file fs "/w/b" "2");
  (* the process is dead at that boundary: every subsequent mutating
     operation fails, not just the planned ones... *)
  Alcotest.(check bool) "write dead" true
    (Result.is_error (Vfs.write_file fs "/w/c" "3"));
  Alcotest.(check bool) "rename dead" true
    (Result.is_error (Vfs.rename fs ~src:"/w/a" ~dst:"/w/z"));
  Alcotest.(check bool) "mkdir dead" true
    (Result.is_error (Vfs.mkdir_p fs "/w/dir"));
  Alcotest.(check bool) "symlink dead" true
    (Result.is_error (Vfs.symlink fs ~target:"/w/a" ~link:"/w/l"));
  Alcotest.(check bool) "remove dead" true
    (Result.is_error (Vfs.remove fs "/pre/keep"));
  (* ...while the pre-crash bytes stay readable, exactly like a disk *)
  Alcotest.(check (result string err)) "pre-crash bytes intact" (Ok "safe")
    (Vfs.read_file fs "/pre/keep");
  Alcotest.(check (result string err)) "barrier-1 write intact" (Ok "1")
    (Vfs.read_file fs "/w/a");
  (* disarming is the fresh process reopening the same disk *)
  Vfs.clear_fault_plan fs;
  Alcotest.(check (result unit err)) "alive again after clear" (Ok ())
    (Vfs.write_file fs "/w/c" "3")

(* --- the persistence protocol --- *)

let atomic_write_and_sweep () =
  let fs = Vfs.create () in
  Alcotest.(check (result unit err)) "atomic write" (Ok ())
    (Vfs.write_atomic fs "/d/f" "v1");
  Alcotest.(check int) "a tmp write and a rename" 2 (Vfs.write_barriers fs);
  Alcotest.(check bool) "no tmp left behind" false (Vfs.exists fs "/d/f.tmp");
  (* a kill at the rename keeps the old bytes and strands the tmp *)
  Vfs.set_fault_plan fs ~mode:Vfs.Crash [ 2 ];
  Alcotest.(check (result unit err)) "rename killed"
    (Error (Vfs.Fault_injected { fi_op = "rename"; fi_path = "/d/f" }))
    (Vfs.write_atomic fs "/d/f" "v2");
  Vfs.clear_fault_plan fs;
  Alcotest.(check (result string err)) "old bytes intact" (Ok "v1")
    (Vfs.read_file fs "/d/f");
  Alcotest.(check (result string err)) "tmp stranded" (Ok "v2")
    (Vfs.read_file fs "/d/f.tmp");
  ignore (Vfs.write_file fs "/d/g" "x");
  let before = Vfs.write_barriers fs in
  Alcotest.(check (result (list string) err)) "sweep keeps the rest"
    (Ok [ "f"; "g" ])
    (Vfs.sweep_tmp fs "/d");
  Alcotest.(check bool) "tmp swept" false (Vfs.exists fs "/d/f.tmp");
  Alcotest.(check int) "sweeping is not a barrier" before
    (Vfs.write_barriers fs);
  Alcotest.(check (result (list string) err)) "missing directory"
    (Error (Vfs.Not_found "/nope"))
    (Vfs.sweep_tmp fs "/nope")

let crash_sweep_driver () =
  (* a pre-populated world: its own write is not one of the run's
     barriers *)
  let world () =
    let fs = Vfs.create () in
    ignore (Vfs.write_file fs "/seed" "s");
    fs
  in
  let run fs =
    Result.map_error Vfs.error_to_string
      (Result.bind (Vfs.write_atomic fs "/a" "1") (fun () ->
           Result.map (fun () -> "done") (Vfs.write_atomic fs "/b" "2")))
  in
  let kills = ref [] in
  (match
     Vfs.crash_sweep ~every:2 ~world ~run (fun reference k fs ->
         kills := k :: !kills;
         if reference <> "done" then Error "wrong reference"
         else if Vfs.write_barriers fs <> k then Error "not dead at k"
         else Ok (Vfs.is_file fs "/a"))
   with
  | Ok (barriers, results) ->
      Alcotest.(check int) "only the run's barriers count" 4 barriers;
      Alcotest.(check (list int)) "kill points 1 and 3" [ 3; 1 ] !kills;
      Alcotest.(check (list bool)) "per-kill results in order" [ false; true ]
        results
  | Error e -> Alcotest.fail e);
  Alcotest.(check (result (pair int (list unit)) string))
    "errors name the kill point" (Error "kill point 2: boom")
    (Vfs.crash_sweep ~world ~run (fun _ k _ ->
         if k = 2 then Error "boom" else Ok ()));
  Alcotest.(check (result (pair int (list unit)) string))
    "a run that survives its crash is an error"
    (Error "kill point 1: the run survived an armed crash plan")
    (Vfs.crash_sweep ~world
       ~run:(fun fs ->
         ignore (Vfs.write_file fs "/x" "");
         Ok ())
       (fun () _ _ -> Ok ()));
  Alcotest.(check (result (pair int (list unit)) string))
    "reference failure" (Error "reference run failed: no")
    (Vfs.crash_sweep ~world ~run:(fun _ -> Error "no") (fun () _ _ -> Ok ()));
  Alcotest.(check (result (pair int (list unit)) string))
    "every validated" (Error "every must be >= 1")
    (Vfs.crash_sweep ~every:0 ~world ~run (fun _ _ _ -> Ok ()))

let write_read_consistent =
  QCheck.Test.make ~name:"last write wins for every path" ~count:100 arb_files
    (fun files ->
      let fs = Vfs.create () in
      let applied =
        List.filter
          (fun (path, content) ->
            Result.is_ok (Vfs.write_file fs path content))
          files
      in
      let last = Hashtbl.create 16 in
      List.iter
        (fun (path, content) ->
          Hashtbl.replace last (Vpath.normalize path) content)
        applied;
      Hashtbl.fold
        (fun path content ok -> ok && Vfs.read_file fs path = Ok content)
        last true)

let () =
  Alcotest.run "vfs"
    [
      ("vpath", [ Alcotest.test_case "path algebra" `Quick vpath_cases ]);
      ( "vfs",
        [
          Alcotest.test_case "file round-trip" `Quick file_roundtrip;
          Alcotest.test_case "errors" `Quick error_cases;
          Alcotest.test_case "symlinks" `Quick symlink_cases;
          Alcotest.test_case "symlink loops" `Quick symlink_loops;
          Alcotest.test_case "ls and walk" `Quick ls_and_walk;
          Alcotest.test_case "removal" `Quick removal;
          Alcotest.test_case "rename" `Quick rename_cases;
          Alcotest.test_case "operation counters" `Quick counters;
          Alcotest.test_case "fault: barrier counting" `Quick
            fault_barrier_counting;
          Alcotest.test_case "fault: transient failures" `Quick fault_fail_op;
          Alcotest.test_case "fault: crash mode" `Quick fault_crash_mode;
          Alcotest.test_case "atomic write and tmp sweep" `Quick
            atomic_write_and_sweep;
          Alcotest.test_case "crash sweep driver" `Quick crash_sweep_driver;
          QCheck_alcotest.to_alcotest write_read_consistent;
        ] );
    ]
