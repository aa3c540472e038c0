(* The machine-speed reference. The benchmark shares a few cores of a
   host with other tenants, and their load moves the speed of allocation-
   heavy code by 20-40% from one half-minute to the next, more than any
   bound a regression gate could use. [time] runs a fixed workload of the
   same kind as the program's: short-lived strings, hash tables and list
   sorts, and large documents written piece by piece and digested. It
   is part of the benchmark, not of the program, so no change to the
   program can change its work. Round times are scaled by [nominal_ms]
   over the reference time measured around the round (see [Harness.run]).

   A pure compute loop (digesting a fixed string) was tried and tracks
   the program's speed far worse: the interference is in the memory
   system, not the arithmetic units. *)

let nominal_ms = 200.

(* Many small tables and lists that die young: under 1% of what this
   allocates survives a minor collection. *)
let small () =
  let acc = ref 0 in
  for batch = 1 to 800 do
    let h = Hashtbl.create 64 in
    for i = 0 to 249 do
      Hashtbl.replace h (string_of_int ((i * 7919) + (batch mod 10007))) i
    done;
    let l = List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) h []) in
    let b = Buffer.create 256 in
    List.iter (fun (k, _) -> Buffer.add_string b k) l;
    acc := !acc + Hashtbl.hash (Buffer.contents b)
  done;
  ignore (Sys.opaque_identity !acc)

(* Documents of ~340 KB written piece by piece and digested, as a cache
   or an index is persisted. They go to one page allocated once: large
   blocks allocated afresh would pile up as garbage in the major heap
   and raise every workload's peak_heap_mb by ~7 MB. *)
let page = Bytes.create (1 lsl 19)

let render () =
  for doc = 1 to 30 do
    let pos = ref 0 in
    let put s =
      Bytes.blit_string s 0 page !pos (String.length s);
      pos := !pos + String.length s
    in
    for i = 0 to 20_000 do
      put "{\"name\":\"";
      put (string_of_int (i + doc));
      put "\"},"
    done;
    ignore (Sys.opaque_identity (Digest.subbytes page 0 !pos))
  done

(* Milliseconds the reference workload takes now, from a settled heap. *)
let time () =
  Gc.full_major ();
  snd
    (Trace.timed (fun () ->
         small ();
         render ()))
