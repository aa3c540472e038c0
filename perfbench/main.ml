let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let perturb = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " spec-sweep | install-synth | env-lifecycle");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--perturb", Arg.Set perturb, " corrupt the compared outputs (every check must fire)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "spec-sweep" -> Spec_sweep.run
    | "install-synth" -> Install_synth.run
    | "env-lifecycle" -> Env_lifecycle.run
    | w ->
        prerr_endline ("unknown workload: " ^ w);
        exit 2
  in
  let traced = !trace = 1 in
  (* the built-in universe is memoized on first use: force it before any
     input is generated, and time it as set-up *)
  let (), lazy_setup_ms =
    Trace.timed (fun () -> ignore (Ospack_repo.Universe.repository ()))
  in
  let r = run ~lazy_setup_ms ~seed:!seed ~seconds:(float !seconds) ~traced ~perturb:!perturb in
  if traced then begin
    (* run from the checkout root, as run.sh does *)
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "perfbench/out/spans-%s-%d.jsonl" !workload !seed in
    Trace.write_jsonl path r.Harness.spans;
    Printf.eprintf "spans: %s\n" path
  end;
  let correct = r.Harness.failed = 0 in
  let metrics =
    List.map
      (fun (m : Harness.metric) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_)
      r.Harness.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.Harness.attempted r.Harness.failed (String.concat ", " metrics);
  exit (if correct then 0 else 1)
