(* Benchmark executable. perfbench/run.py builds it and calls

     perfbench.exe prepare --workload W --seed N --dir DIR
     perfbench.exe run --workload W --seed N --seconds S --trace 0|1
                       --dir DIR --cli LEGALIZE_CLI --spans FILE

   [prepare] writes the workload's inputs (derived from the seed) into
   DIR; [run] measures for S seconds and prints one JSON line with the
   operation counts, the correctness verdict and the metric values. *)

(* Per-layer metrics that only one kind of workload reaches; the other
   kind reports them as 0. *)
let batch_layers =
  [ "mgl.s"; "mgl.us_per_cell"; "mgl.windows_built"; "mgl.cuts_evaluated";
    "mgl.cuts_pruned"; "mgl.prune_ratio"; "mgl.window_growths"; "mgl.fallbacks";
    "mgl.rounds"; "shard.interior"; "shard.boundary"; "shard.deferred"; "matching.s";
    "matching.groups"; "matching.cells_moved"; "row_order.s"; "row_order.arcs"; "parse.s" ]

let serve_layers =
  [ "decode.us"; "engine.eco_ms"; "engine.query_ms"; "encode.us"; "wal.append_us";
    "wal.bytes"; "wal.fsyncs"; "snapshot.ms"; "loop.queue_wait_ms"; "eco.cuts_evaluated";
    "eco.cells_touched" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let dir = ref "" and cli = ref "" and spans = ref "spans.json" in
  let mode = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "table1 | wide | serve");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured time");
      ("--trace", Arg.Set_int trace, "1 = traced run (per-layer metrics)");
      ("--dir", Arg.Set_string dir, "input/work directory");
      ("--cli", Arg.Set_string cli, "legalize_cli executable (serve)");
      ("--spans", Arg.Set_string spans, "where the traced run writes its spans") ]
    (fun m -> mode := m)
    "perfbench.exe (prepare|run) --workload W --seed N --dir DIR [...]";
  let batch =
    match !workload with
    | "table1" -> Some Batch_work.Table1
    | "wide" -> Some Batch_work.Wide
    | "serve" -> None
    | w -> failwith ("unknown workload " ^ w)
  in
  match !mode, batch with
  | "prepare", Some kind -> Batch_work.prepare kind ~seed:!seed ~dir:!dir
  | "prepare", None -> Serve_work.prepare ~dir:!dir
  | "run", _ ->
    let r = Outcome.create () in
    let traced = !trace = 1 in
    (match batch with
     | Some kind ->
       if traced then List.iter (fun n -> Outcome.set r n 0.0) serve_layers;
       Batch_work.run r kind ~dir:!dir ~seconds:!seconds ~trace:traced ~spans_out:!spans
     | None ->
       if traced then List.iter (fun n -> Outcome.set r n 0.0) batch_layers;
       Serve_work.run r ~seed:!seed ~dir:!dir ~cli:!cli ~seconds:!seconds ~trace:traced
         ~spans_out:!spans);
    Outcome.print r
  | m, _ -> failwith ("unknown mode " ^ m)
