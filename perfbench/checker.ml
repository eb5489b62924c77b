(* Output checks written apart from lib/eval: they read only the
   netlist records (cell types, floorplan, fences) and recompute every
   verdict from cell positions, so a bug shared by the legalizer and
   its own auditor cannot pass unnoticed. *)

open Mcl_netlist

let width (d : Design.t) (c : Cell.t) = d.Design.cell_types.(c.Cell.type_id).Cell_type.width
let height (d : Design.t) (c : Cell.t) = d.Design.cell_types.(c.Cell.type_id).Cell_type.height

(* Sorted, merged x-intervals [lo, hi) covered by fence rectangles on
   row [y]. *)
let fence_spans (f : Fence.t) y =
  let spans =
    List.filter_map
      (fun (r : Mcl_geom.Rect.t) ->
         if r.y.lo <= y && y < r.y.hi && r.x.lo < r.x.hi then Some (r.x.lo, r.x.hi)
         else None)
      f.Fence.rects
    |> List.sort compare
  in
  let rec merge acc = function
    | [] -> List.rev acc
    | (lo, hi) :: rest ->
      (match acc with
       | (plo, phi) :: acc' when lo <= phi -> merge ((plo, max phi hi) :: acc') rest
       | _ -> merge ((lo, hi) :: acc) rest)
  in
  merge [] spans

(* Every violation found, as human-readable strings (empty = legal):
   overlaps per row (multi-row cells occupy every row they span),
   die containment, blockages, P/G parity (a cell of even height must
   start on an even row, where its rails line up), fence containment
   (a fenced cell lies inside its fence on every row; an unfenced cell
   touches no fence), and fixed cells left at their anchors. Positions
   are integer site/row indices, so site and row alignment is checked
   by the die test on integer coordinates. *)
let violations (d : Design.t) =
  let fp = d.Design.floorplan in
  let out = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let rows = Array.make fp.Floorplan.num_rows [] in
  Array.iter
    (fun (c : Cell.t) ->
       let w = width d c and h = height d c in
       if c.is_fixed then begin
         if c.x <> c.gp_x || c.y <> c.gp_y then bad "fixed cell %d moved" c.id
       end
       else begin
         if c.x < 0 || c.y < 0 || c.x + w > fp.Floorplan.num_sites
            || c.y + h > fp.Floorplan.num_rows
         then bad "cell %d outside the die" c.id;
         if h mod 2 = 0 && c.y mod 2 <> 0 then bad "cell %d: even height on odd row" c.id;
         List.iter
           (fun (b : Mcl_geom.Rect.t) ->
              if c.x < b.x.hi && b.x.lo < c.x + w && c.y < b.y.hi && b.y.lo < c.y + h then
                bad "cell %d on a blockage" c.id)
           fp.Floorplan.blockages;
         for y = c.y to c.y + h - 1 do
           if c.region >= 1 then begin
             let f = d.Design.fences.(c.region - 1) in
             if not (List.exists (fun (lo, hi) -> lo <= c.x && c.x + w <= hi) (fence_spans f y))
             then bad "cell %d leaves fence %d on row %d" c.id c.region y
           end
           else
             Array.iter
               (fun f ->
                  if List.exists (fun (lo, hi) -> c.x < hi && lo < c.x + w) (fence_spans f y)
                  then bad "unfenced cell %d enters fence %d on row %d" c.id f.Fence.fence_id y)
               d.Design.fences
         done
       end;
       for y = max 0 c.y to min (fp.Floorplan.num_rows - 1) (c.y + h - 1) do
         rows.(y) <- (c.x, c.x + w, c.id) :: rows.(y)
       done)
    d.Design.cells;
  Array.iteri
    (fun y occ ->
       let sorted = List.sort compare occ in
       ignore
         (List.fold_left
            (fun (reach, owner) (lo, hi, id) ->
               if lo < reach then bad "cells %d and %d overlap on row %d" owner id y;
               if hi > reach then (hi, id) else (reach, owner))
            (min_int, -1) sorted))
    rows;
  List.rev !out

(* Paper Eq. 2 from positions and GP anchors: a cell's displacement is
   |dx| sites plus |dy| rows, in row heights; the average is taken per
   cell height, then over the heights present. Returns (avg, max). *)
let displacement (d : Design.t) =
  let fp = d.Design.floorplan in
  let by_height = Hashtbl.create 8 in
  let worst = ref 0.0 in
  Array.iter
    (fun (c : Cell.t) ->
       if not c.is_fixed then begin
         let dbu =
           (abs (c.x - c.gp_x) * fp.Floorplan.site_width)
           + (abs (c.y - c.gp_y) * fp.Floorplan.row_height)
         in
         let disp = float_of_int dbu /. float_of_int fp.Floorplan.row_height in
         worst := Float.max !worst disp;
         let h = height d c in
         let sum, n = Option.value (Hashtbl.find_opt by_height h) ~default:(0.0, 0) in
         Hashtbl.replace by_height h (sum +. disp, n + 1)
       end)
    d.Design.cells;
  let means = Hashtbl.fold (fun _ (sum, n) acc -> (sum /. float_of_int n) :: acc) by_height [] in
  let avg =
    match means with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 (List.sort compare means) /. float_of_int (List.length means)
  in
  (avg, !worst)

let close_to a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* Positions of every cell, for determinism and thread-invariance
   comparisons. *)
let positions (d : Design.t) = Array.map (fun (c : Cell.t) -> (c.Cell.x, c.Cell.y)) d.Design.cells
