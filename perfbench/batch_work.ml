(* The batch workloads: designs written as bookshelf files before
   timing starts, then parsed and legalized through [Pipeline.run] in
   whole rounds until the run's time is up.

   - table1: the 16 ICCAD-2017-like designs at one reduced scale,
     fences and routability on, [Config.default] (one thread, one
     shard). Compact dies where the MGL kernel does most of the work.
   - wide: des_perf_1 and edit_dist_a_md2 tiled side by side
     ([Spec.replicate]) and run with two shards on two threads: the
     die-width term of window build, the sharded scheduler, and the
     post-passes at large group sizes. *)

open Mcl_netlist
module Suites = Mcl_gen.Suites
module Spec = Mcl_gen.Spec

type kind = Table1 | Wide

let table1_scale = 0.25
let wide_scale = 0.1
let wide_copies = 10

(* The suite designs keep their own spec seeds; the workload seed
   jitters every movable cell's GP anchor by at most [jitter_sites]
   sites and one row. Reseeding the generator instead changes which
   designs come out hard (fence and hotspot layout), and moved
   cells/s by about 30% between seeds. *)
let jitter_sites = 3

let jitter ~seed (d : Design.t) =
  let rng = Mcl_geom.Prng.create ((seed * 7919) + Hashtbl.hash d.Design.name) in
  let fp = d.Design.floorplan in
  Array.iter
    (fun (c : Cell.t) ->
       if not c.is_fixed then begin
         let clamp hi v = max 0 (min hi v) in
         let dx = Mcl_geom.Prng.int_in rng (-jitter_sites) jitter_sites in
         let dy = Mcl_geom.Prng.int_in rng (-1) 1 in
         c.gp_x <- clamp (fp.Floorplan.num_sites - Design.width d c) (c.gp_x + dx);
         c.gp_y <- clamp (fp.Floorplan.num_rows - Design.height d c) (c.gp_y + dy);
         Cell.reset_to_gp c
       end)
    d.Design.cells;
  d

let specs = function
  | Table1 -> Suites.iccad2017 ~scale:table1_scale ()
  | Wide ->
    Suites.iccad2017 ~scale:wide_scale ~replicate:wide_copies ()
    |> List.filter (fun (s : Spec.t) ->
        s.Spec.name = "des_perf_1" || s.Spec.name = "edit_dist_a_md2")

let config = function
  | Table1 -> Mcl.Config.default
  | Wide -> { Mcl.Config.default with Mcl.Config.shards = 2; threads = 2 }

let prepare kind ~seed ~dir =
  List.iteri
    (fun i (s : Spec.t) ->
       Mcl_bookshelf.Writer.write_file
         (Filename.concat dir (Printf.sprintf "%02d_%s.mcl" i s.Spec.name))
         (jitter ~seed (Mcl_gen.Generator.generate s)))
    (specs kind)

let design_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mcl")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* One design's measurements in one round. *)
type sample = {
  path : string;
  cells : int;
  parse_s : float;
  run_s : float;
  query_s : float;
  score : float;
  max_disp : float;
  stats : Mcl.Scheduler.stats;
  matching : Mcl.Matching_opt.stats;
  row_order : Mcl.Row_order_opt.stats;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A full-design read, as the service's [query] computes it: legality,
   the Eq. 10 score, the congestion summary and the worst windows. *)
let query sp ~gp_hpwl design =
  let legal = Spans.span sp "query.legality" (fun () -> Mcl_eval.Legality.check design) in
  let score =
    Spans.span sp "query.score" (fun () -> Mcl_eval.Score.evaluate ~gp_hpwl design)
  in
  let congest =
    Spans.span sp "query.congest" (fun () ->
        Mcl_congest.Congestion.summarize (Mcl_congest.Congestion.create design))
  in
  let worst =
    Spans.span sp "query.windows" (fun () ->
        Mcl_eval.Windows.worst_cells ~k:4 ~halfwidth:Mcl_exact.Refine.default_halfwidth
          ~halfheight:Mcl_exact.Refine.default_halfheight design)
  in
  ignore (legal, congest, worst);
  score

(* [Pipeline.run]; when tracing, each flow stage becomes a span that
   ends when [Pipeline.run] reports the stage done and starts where the
   previous one ended. *)
let legalize sp config design =
  let on_stage =
    if not sp.Spans.enabled then None
    else begin
      let mark = ref (Spans.now ()) in
      Some
        (fun stage ->
           let t1 = Spans.now () in
           let name =
             match stage with
             | Mcl.Pipeline.Mgl_stage -> "mgl"
             | Matching_stage -> "matching"
             | Row_order_stage -> "row_order"
           in
           Spans.record sp name ~t0:!mark ~t1;
           mark := t1)
    end
  in
  let r = Mcl.Pipeline.run ?on_stage config design in
  match r.Mcl.Pipeline.matching_stats, r.Mcl.Pipeline.row_order_stats with
  | Some m, Some o -> (r.Mcl.Pipeline.mgl_stats, m, o)
  | _ -> failwith "Pipeline.run skipped a post-pass"

(* Worst cell displacement of each tile, averaged over the tiles (a
   die tiled [tiles] times holds copy [c] in cell ids [c*n, (c+1)*n)).
   A single worst cell moves a lot when a GP anchor is nudged; the
   mean over tiles and designs keeps the figure steady across seeds. *)
let tile_max_disp ~tiles (d : Design.t) =
  let n = max 1 (Design.num_cells d / tiles) in
  let worst = Array.make tiles 0.0 in
  Array.iter
    (fun (c : Cell.t) ->
       if not c.is_fixed then begin
         let t = min (tiles - 1) (c.id / n) in
         worst.(t) <- Float.max worst.(t) (Mcl_eval.Metrics.displacement d c)
       end)
    d.Design.cells;
  Array.fold_left ( +. ) 0.0 worst /. float_of_int tiles

(* Parse, legalize and query one design; returns the sample and the
   design. Raises when the program fails. *)
let one sp ~tiles config path =
  let design, parse_s =
    timed (fun () ->
        Spans.span sp "parse" (fun () ->
            match Mcl_bookshelf.Parser.parse_file path with
            | Ok d -> d
            | Error e -> failwith (path ^ ": " ^ e)))
  in
  let gp_hpwl = Mcl_eval.Metrics.hpwl design in
  let (stats, matching, row_order), run_s = timed (fun () -> legalize sp config design) in
  let score, query_s = timed (fun () -> Spans.span sp "query" (fun () -> query sp ~gp_hpwl design)) in
  ( { path; cells = stats.Mcl.Scheduler.legalized; parse_s; run_s; query_s;
      score = score.Mcl_eval.Score.score; max_disp = tile_max_disp ~tiles design;
      stats; matching; row_order },
    design, score )

(* The independent checks of one legalized design. *)
let check (r : Outcome.t) path design (s : sample) (score : Mcl_eval.Score.t) =
  let name = Filename.basename path in
  (match Checker.violations design with
   | [] -> ()
   | v :: _ as vs -> Outcome.problem r "%s: %d violations, first: %s" name (List.length vs) v);
  let avg, worst = Checker.displacement design in
  if not (Checker.close_to avg score.Mcl_eval.Score.avg_disp
          && Checker.close_to worst score.Mcl_eval.Score.max_disp)
  then
    Outcome.problem r "%s: recomputed displacement %g/%g, Score.evaluate %g/%g" name avg worst
      score.Mcl_eval.Score.avg_disp score.Mcl_eval.Score.max_disp;
  let slack x = x +. (1e-9 *. Float.max 1.0 (Float.abs x)) in
  if s.matching.Mcl.Matching_opt.phi_after > slack s.matching.Mcl.Matching_opt.phi_before then
    Outcome.problem r "%s: matching raised phi %g -> %g" name s.matching.phi_before
      s.matching.phi_after;
  if s.row_order.Mcl.Row_order_opt.weighted_disp_after
     > slack s.row_order.Mcl.Row_order_opt.weighted_disp_before
  then
    Outcome.problem r "%s: row-order raised displacement %g -> %g" name
      s.row_order.weighted_disp_before s.row_order.weighted_disp_after;
  let movable =
    Array.fold_left (fun n (c : Cell.t) -> if c.is_fixed then n else n + 1) 0 design.Design.cells
  in
  if s.cells <> movable then
    Outcome.problem r "%s: %d cells legalized of %d movable" name s.cells movable

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let sumi f l = List.fold_left (fun a x -> a + f x) 0 l

type round = {
  samples : sample list;  (** plain passes *)
  traced_samples : sample list;  (** passes under spans (traced runs) *)
  minor_words : float;  (** allocated by the traced passes *)
  major : int;
}

(* Set-up is parsing every design of the workload. One parse of them
   all takes 15-20 ms, and the host's speed drifts over seconds, so
   set-up is sampled [setup_reps] times before every round, each time
   from a compacted heap, and the median over the run is reported. *)
let setup_reps = 4

let setup_sample files =
  Gc.compact ();
  snd
    (timed (fun () ->
         List.iter
           (fun f ->
              match Mcl_bookshelf.Parser.parse_file f with
              | Ok _ -> ()
              | Error e -> failwith (f ^ ": " ^ e))
           files))

(* Run rounds until [seconds] have passed and at least [min_rounds]
   ran; [before_round] runs ahead of each, outside the round's timing.
   With [sp] enabled every design runs twice per round, once plain and
   once under spans, in alternating order, so the pair is measured at
   the same moment on the host. Every pass must reproduce the first
   pass's placements. *)
let rounds ?(before_round = fun _ -> ()) r kind ~dir ~seconds ~min_rounds sp =
  let config = config kind in
  let tiles = match kind with Table1 -> 1 | Wide -> wide_copies in
  let files = design_files dir in
  let reference = Hashtbl.create 16 in
  let quiet = Spans.create ~enabled:false in
  let minor = ref 0.0 and major = ref 0 in
  let pass i path ~traced =
    r.Outcome.attempted <- r.Outcome.attempted + 1;
    let g0 = Gc.quick_stat () in
    match one (if traced then sp else quiet) ~tiles config path with
    | s, design, score ->
      if traced then begin
        let g1 = Gc.quick_stat () in
        minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
        major := !major + g1.Gc.major_collections - g0.Gc.major_collections
      end;
      check r path design s score;
      let pos = Checker.positions design in
      (match Hashtbl.find_opt reference path with
       | None -> Hashtbl.add reference path pos
       | Some p0 ->
         if p0 <> pos then
           Outcome.problem r "%s: round %d placement differs from the first"
             (Filename.basename path) i);
      Some (traced, s)
    | exception e ->
      r.Outcome.failed <- r.Outcome.failed + 1;
      prerr_endline (path ^ ": " ^ Printexc.to_string e);
      None
  in
  let t_end = Unix.gettimeofday () +. seconds in
  let rec loop i acc =
    if i >= min_rounds && Unix.gettimeofday () >= t_end then List.rev acc
    else begin
      before_round files;
      minor := 0.0;
      major := 0;
      let t0 = Unix.gettimeofday () in
      let passes =
        List.concat
          (List.mapi
             (fun k path ->
                let order =
                  if not sp.Spans.enabled then [ false ]
                  else if (i + k) mod 2 = 0 then [ false; true ]
                  else [ true; false ]
                in
                List.filter_map (fun traced -> pass i path ~traced) order)
             files)
      in
      let pick t = List.filter_map (fun (on, s) -> if on = t then Some s else None) passes in
      let samples = pick false in
      Printf.eprintf "round %d: %.3f s wall, %.1f cells/s\n%!" i (Unix.gettimeofday () -. t0)
        (float_of_int (sumi (fun s -> s.cells) samples) /. sum (fun s -> s.run_s) samples);
      loop (i + 1) ({ samples; traced_samples = pick true; minor_words = !minor; major = !major } :: acc)
    end
  in
  (loop 0 [], reference, config, files)

let geomean l = exp (sum log l /. float_of_int (List.length l))

(* End-to-end metrics from untraced rounds. Every timing starts from
   each design's median over the rounds, so a burst of load from
   elsewhere on the host that slows one round does not move it: rates
   divide by the sum of those medians, the latency median is taken
   over the designs. Quality comes from the first round (every round
   is checked to match it). *)
let end_to_end r rds =
  let first = List.hd rds in
  let all = List.concat_map (fun rd -> rd.samples) rds in
  let typical =
    List.map
      (fun s0 ->
         Spans.median (List.filter_map (fun s -> if s.path = s0.path then Some s.run_s else None) all))
      first.samples
  in
  let typical_query =
    List.map
      (fun s0 ->
         Spans.median
           (List.filter_map (fun s -> if s.path = s0.path then Some s.query_s else None) all))
      first.samples
  in
  let busy = List.fold_left ( +. ) 0.0 typical in
  Outcome.set r "cells_per_s" (float_of_int (sumi (fun s -> s.cells) first.samples) /. busy);
  Outcome.set r "muts_per_s" (float_of_int (List.length first.samples) /. busy);
  Outcome.set r "score_eq10" (geomean (List.map (fun s -> s.score) first.samples));
  Outcome.set r "max_disp_rows" (Spans.mean (List.map (fun s -> s.max_disp) first.samples));
  Outcome.set r "mut_p50_ms" (1e3 *. Spans.quantile 0.5 typical);
  Outcome.set r "mut_p90_ms" (1e3 *. Spans.quantile 0.9 typical);
  Outcome.set r "query_p50_ms" (1e3 *. Spans.median typical_query);
  Outcome.set r "peak_rss_mb" (Spans.peak_rss_mb "self")

(* The timed part of a round: what the end-to-end metrics measure. *)
let timed_part rd = sum (fun s -> s.parse_s +. s.run_s +. s.query_s) rd.samples

let per_layer r kind ~dir ~seconds ~spans_out =
  let sp = Spans.create ~enabled:true in
  let rds, reference, config, files = rounds r kind ~dir ~seconds ~min_rounds:1 sp in
  let traced = List.map (fun rd -> { rd with samples = rd.traced_samples }) rds in
  let n = float_of_int (List.length traced) in
  let tot = Spans.totals sp in
  let self name = let _, _, s = Spans.lookup tot name in s /. n in
  let per_call_ms name =
    let c, _, s = Spans.lookup tot name in
    if c = 0 then 0.0 else s /. float_of_int c *. 1e3
  in
  let rd = List.hd traced in
  let stats = List.map (fun s -> s.stats) rd.samples in
  let k f = float_of_int (sumi (fun (s : Mcl.Scheduler.stats) -> f s.Mcl.Scheduler.kernel) stats) in
  let st f = float_of_int (sumi f stats) in
  let cells = float_of_int (sumi (fun s -> s.cells) rd.samples) in
  let shard f =
    float_of_int
      (sumi (fun (s : Mcl.Scheduler.stats) ->
           match s.Mcl.Scheduler.sharding with Some i -> f i | None -> 0) stats)
  in
  let evaluated = k (fun c -> c.Mcl.Arena.cuts_evaluated) in
  let pruned = k (fun c -> c.Mcl.Arena.cuts_pruned) in
  Outcome.set r "mgl.s" (self "mgl");
  Outcome.set r "mgl.us_per_cell" (self "mgl" /. cells *. 1e6);
  Outcome.set r "mgl.windows_built" (k (fun c -> c.Mcl.Arena.windows_built));
  Outcome.set r "mgl.cuts_evaluated" evaluated;
  Outcome.set r "mgl.cuts_pruned" pruned;
  Outcome.set r "mgl.prune_ratio" (pruned /. (evaluated +. pruned));
  Outcome.set r "mgl.window_growths" (st (fun s -> s.Mcl.Scheduler.window_growths));
  Outcome.set r "mgl.fallbacks" (st (fun s -> s.Mcl.Scheduler.fallbacks));
  Outcome.set r "mgl.rounds" (st (fun s -> s.Mcl.Scheduler.rounds));
  Outcome.set r "shard.interior" (shard (fun i -> i.Mcl.Scheduler.interior_legalized));
  Outcome.set r "shard.boundary" (shard (fun i -> i.Mcl.Scheduler.boundary_zone));
  Outcome.set r "shard.deferred" (shard (fun i -> i.Mcl.Scheduler.deferred));
  Outcome.set r "matching.s" (self "matching");
  Outcome.set r "matching.groups"
    (float_of_int (sumi (fun s -> s.matching.Mcl.Matching_opt.groups) rd.samples));
  Outcome.set r "matching.cells_moved"
    (float_of_int (sumi (fun s -> s.matching.Mcl.Matching_opt.cells_moved) rd.samples));
  Outcome.set r "row_order.s" (self "row_order");
  Outcome.set r "row_order.arcs"
    (float_of_int (sumi (fun s -> s.row_order.Mcl.Row_order_opt.arcs) rd.samples));
  Outcome.set r "parse.s" (self "parse");
  Outcome.set r "gc.minor_mwords" (Spans.mean (List.map (fun rd -> rd.minor_words /. 1e6) traced));
  Outcome.set r "gc.major_collections"
    (Spans.mean (List.map (fun rd -> float_of_int rd.major) traced));
  List.iter
    (fun q -> Outcome.set r ("query." ^ q ^ "_ms") (per_call_ms ("query." ^ q)))
    [ "legality"; "score"; "congest"; "windows" ];
  let layers = [ "parse"; "mgl"; "matching"; "row_order"; "query"; "query.legality";
                 "query.score"; "query.congest"; "query.windows" ] in
  (* per round: layer self time and traced time against the plain
     passes of the same designs in the same round *)
  let covered = List.fold_left (fun a l -> a +. self l) 0.0 layers in
  let untraced = Spans.mean (List.map timed_part rds) in
  let with_spans = Spans.mean (List.map timed_part traced) in
  Outcome.set r "trace.coverage" (covered /. untraced);
  Outcome.set r "trace.overhead" ((with_spans /. untraced) -. 1.0);
  (* thread-count invariance: the sharded path must give the same
     placements on one thread as on two *)
  if kind = Wide then
    List.iter
      (fun path ->
         let d =
           match Mcl_bookshelf.Parser.parse_file path with
           | Ok d -> d
           | Error e -> failwith e
         in
         ignore (Mcl.Pipeline.run { config with Mcl.Config.threads = 1 } d);
         if Some (Checker.positions d) <> Hashtbl.find_opt reference path then
           Outcome.problem r "%s: threads=1 placement differs from threads=%d"
             (Filename.basename path) config.Mcl.Config.threads)
      files;
  Spans.write sp spans_out

let run r kind ~dir ~seconds ~trace ~spans_out =
  if trace then per_layer r kind ~dir ~seconds ~spans_out
  else begin
    let setups = ref [] in
    let before_round files =
      for _ = 1 to setup_reps do setups := setup_sample files :: !setups done
    in
    let rds, _, _, _ =
      rounds ~before_round r kind ~dir ~seconds ~min_rounds:1 (Spans.create ~enabled:false)
    in
    end_to_end r rds;
    Outcome.set r "setup_s" (Spans.median !setups)
  end
