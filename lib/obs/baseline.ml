module Json = Ospack_json.Json

type verdict = Regression | Shape | Improvement

type finding = { f_path : string; f_verdict : verdict; f_message : string }

let tolerance = 0.05

type direction = Higher_is_worse | Lower_is_worse | Informational | Exact

(* the policy table, keyed on the leaf field name — any numeric field not
   listed here must match the baseline exactly *)
let policy_of = function
  | "makespan_seconds" | "serial_seconds" | "build_seconds" | "total_seconds"
  | "self_seconds" | "cp_seconds" | "cold_iterations" | "warm_iterations"
  | "iterations" | "decisions" | "propagations"
  | "conflicts" | "restarts" | "greedy_runs" ->
      Higher_is_worse
  | "speedup" | "efficiency" | "reuse_hits" | "utilization" -> Lower_is_worse
  | "wall_ms" -> Informational
  | _ -> Exact

let number_of = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let type_name = function
  | Json.Null -> "null"
  | Json.Bool _ -> "bool"
  | Json.Int _ | Json.Float _ -> "number"
  | Json.String _ -> "string"
  | Json.List _ -> "array"
  | Json.Obj _ -> "object"

let compare_docs ~baseline ~current =
  let findings = ref [] in
  let add path verdict message =
    findings := { f_path = path; f_verdict = verdict; f_message = message }
      :: !findings
  in
  let number path key base cur =
    match policy_of key with
    | Informational -> ()
    | Exact ->
        if base <> cur then
          add path Shape
            (Printf.sprintf "value changed %s -> %s (exact-match metric)"
               (Json.to_string (Json.fixed base))
               (Json.to_string (Json.fixed cur)))
    | (Higher_is_worse | Lower_is_worse) as dir ->
        (* relative tolerance with an absolute floor, so a 0-iteration
           or sub-second baseline still admits rounding noise but never
           an injected regression *)
        let allowed = tolerance *. Float.max (Float.abs base) 1.0 in
        let delta =
          match dir with
          | Higher_is_worse -> cur -. base
          | _ -> base -. cur
        in
        if delta > allowed then
          add path Regression
            (Printf.sprintf "%s -> %s (worse by %.1f%%, tolerance %.0f%%)"
               (Json.to_string (Json.fixed base))
               (Json.to_string (Json.fixed cur))
               (100.0 *. Float.abs delta /. Float.max (Float.abs base) 1e-9)
               (100.0 *. tolerance))
        else if -.delta > allowed then
          add path Improvement
            (Printf.sprintf "%s -> %s (better by %.1f%%)"
               (Json.to_string (Json.fixed base))
               (Json.to_string (Json.fixed cur))
               (100.0 *. Float.abs delta /. Float.max (Float.abs base) 1e-9))
  in
  let rec walk path key base cur =
    match (base, cur) with
    | Json.Obj bfields, Json.Obj cfields ->
        List.iter
          (fun (k, bv) ->
            let p = if path = "" then k else path ^ "." ^ k in
            match List.assoc_opt k cfields with
            | Some cv -> walk p k bv cv
            | None -> add p Shape "field missing from current run")
          bfields;
        List.iter
          (fun (k, _) ->
            if not (List.mem_assoc k bfields) then
              add
                (if path = "" then k else path ^ "." ^ k)
                Shape "field not present in baseline")
          cfields
    | Json.List bitems, Json.List citems ->
        let nb = List.length bitems and nc = List.length citems in
        if nb <> nc then
          add path Shape
            (Printf.sprintf "array length %d in baseline, %d now" nb nc)
        else
          List.iteri
            (fun i (bv, cv) ->
              walk (Printf.sprintf "%s[%d]" path i) key bv cv)
            (List.combine bitems citems)
    | _ -> (
        match (number_of base, number_of cur) with
        | Some b, Some c -> number path key b c
        | _ ->
            if base <> cur then
              add path Shape
                (Printf.sprintf "%s %s in baseline, %s %s now"
                   (type_name base) (Json.to_string base) (type_name cur)
                   (Json.to_string cur)))
  in
  walk "" "" baseline current;
  List.rev !findings

let regressions findings =
  List.filter
    (fun f ->
      match f.f_verdict with
      | Regression | Shape -> true
      | Improvement -> false)
    findings

let report = function
  | [] -> "baseline check: ok\n"
  | findings ->
      let buf = Buffer.create 256 in
      List.iter
        (fun f ->
          Buffer.add_string buf
            (Printf.sprintf "%s %s: %s\n"
               (match f.f_verdict with
               | Regression -> "REGRESSION "
               | Shape -> "SHAPE      "
               | Improvement -> "improvement")
               f.f_path f.f_message))
        findings;
      Buffer.contents buf
