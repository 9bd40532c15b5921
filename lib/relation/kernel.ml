(* ---- serial/parallel dispatch ----

   Kernels run serially unless the domain pool is enabled (jobs > 1)
   AND the input is large enough that chunking pays for itself. The
   parallel variants in {!Par} are byte-identical to the serial paths,
   so dispatch never changes an answer — only the wall clock. *)

let par_threshold = Columnar.par_threshold

(* single-pass filter: fill a scratch array, trim once at the end — the
   old [Array.of_seq (Seq.filter ...)] walked the rows twice and consed
   a closure chain per element *)
let filter_rows keep rows =
  let n = Array.length rows in
  let buf = Array.make n [||] in
  let count = ref 0 in
  Array.iter
    (fun row ->
       if keep row then begin
         buf.(!count) <- row;
         incr count
       end)
    rows;
  if !count = n then buf else Array.sub buf 0 !count

let dispatch name ~rows serial parallel =
  let jobs = Pool.effective_jobs () in
  if jobs > 1 && rows >= par_threshold then begin
    Obs.Trace.with_span
      ~attrs:[ ("kernel", Obs.Trace.String name);
               ("jobs", Obs.Trace.Int jobs);
               ("rows", Obs.Trace.Int rows);
               ("chunks",
                Obs.Trace.Int (Array.length (Pool.chunks ~jobs rows))) ]
      "kernel.par"
    @@ fun () ->
    Obs.Metrics.incr Obs.Metrics.default ("kernel.par." ^ name);
    Obs.Metrics.observe Obs.Metrics.default "kernel.par.chunks"
      (float_of_int (Array.length (Pool.chunks ~jobs rows)));
    parallel ~jobs
  end
  else serial ()

(* The hot kernels try the vectorized columnar path first; [None] means
   "not expressible byte-identically in columns", and the row path —
   serial or domain-pool chunked — runs instead, counted as
   [kernel.row.<kernel>] (the columnar side counts
   [kernel.columnar.<kernel>]). *)

let row_path name = Obs.Metrics.incr Obs.Metrics.default ("kernel.row." ^ name)

let select t pred =
  match Columnar.try_select t pred with
  | Some r -> Table.settle r
  | None ->
  row_path "select";
  dispatch "select" ~rows:(Table.row_count t)
    (fun () ->
       let schema = Table.schema t in
       let f = Expr.compile schema pred in
       let keep row =
         match f row with
         | Value.Bool b -> b
         | v ->
           raise
             (Expr.Type_error
                (Printf.sprintf "SELECT predicate returned %s"
                   (Value.to_string v)))
       in
       Table.create_unchecked schema (filter_rows keep (Table.rows t)))
    (fun ~jobs -> Par.select ~jobs t pred)

let project t cols =
  match Columnar.try_project t cols with
  | Some r -> r
  | None ->
  row_path "project";
  dispatch "project" ~rows:(Table.row_count t)
    (fun () ->
       let schema = Table.schema t in
       let idxs = Array.of_list (List.map (Schema.index_of schema) cols) in
       let out_schema = Schema.restrict schema cols in
       let rows =
         Array.map (fun row -> Array.map (fun i -> row.(i)) idxs)
           (Table.rows t)
       in
       Table.create_unchecked out_schema rows)
    (fun ~jobs -> Par.project ~jobs t cols)

let map_column t ~target ~expr =
  match Columnar.try_map_column t ~target ~expr with
  | Some r -> r
  | None ->
  row_path "map";
  dispatch "map" ~rows:(Table.row_count t)
    (fun () ->
       let schema = Table.schema t in
       let ty = Expr.infer schema expr in
       let f = Expr.compile schema expr in
       let out_schema =
         Schema.with_column schema { Schema.name = target; ty }
       in
       let replace = Schema.mem schema target in
       let idx = if replace then Schema.index_of schema target else -1 in
       let transform row =
         let v = f row in
         if replace then begin
           let row' = Array.copy row in
           row'.(idx) <- v;
           row'
         end
         else Array.append row [| v |]
       in
       Table.create_unchecked out_schema
         (Array.map transform (Table.rows t)))
    (fun ~jobs -> Par.map_column ~jobs t ~target ~expr)

let rename_column t ~from_ ~to_ =
  let schema = Table.schema t in
  let cols =
    List.map
      (fun (c : Schema.column) ->
         if c.name = from_ then { c with name = to_ } else c)
      (Schema.columns schema)
  in
  if not (Schema.mem schema from_) then raise Not_found;
  Table.create_unchecked (Schema.make cols) (Table.rows t)

let serial_join left right ~left_key ~right_key =
  let ls = Table.schema left and rs = Table.schema right in
  let li = Schema.index_of ls left_key and ri = Schema.index_of rs right_key in
  (* right schema without its key column; a key-only right side adds
     nothing (semi-join) *)
  let r_cols_keep =
    List.filteri (fun j _ -> j <> ri) (Schema.columns rs)
  in
  let out_schema =
    if r_cols_keep = [] then ls
    else Schema.concat ls (Schema.make r_cols_keep)
  in
  let build = Hashtbl.create (max 16 (Table.row_count left)) in
  Array.iter
    (fun row -> Hashtbl.add build row.(li) row)
    (Table.rows left);
  let out = ref [] in
  let keep_idx =
    Array.of_list
      (List.filteri (fun j _ -> j <> ri)
         (List.mapi (fun j _ -> j) (Schema.columns rs)))
  in
  Array.iter
    (fun rrow ->
       let matches = Hashtbl.find_all build rrow.(ri) in
       List.iter
         (fun lrow ->
            let extra = Array.map (fun j -> rrow.(j)) keep_idx in
            out := Array.append lrow extra :: !out)
         matches)
    (Table.rows right);
  Table.create_unchecked out_schema (Array.of_list (List.rev !out))

let join left right ~left_key ~right_key =
  match Columnar.try_join left right ~left_key ~right_key with
  | Some r -> Table.settle r
  | None ->
  row_path "join";
  dispatch "join" ~rows:(Table.row_count left + Table.row_count right)
    (fun () -> serial_join left right ~left_key ~right_key)
    (fun ~jobs -> Par.join ~jobs left right ~left_key ~right_key)

let right_keep_info right ~right_key =
  let rs = Table.schema right in
  let ri = Schema.index_of rs right_key in
  let keep_cols = List.filteri (fun j _ -> j <> ri) (Schema.columns rs) in
  let keep_idx =
    Array.of_list
      (List.filteri (fun j _ -> j <> ri)
         (List.mapi (fun j _ -> j) (Schema.columns rs)))
  in
  (ri, keep_cols, keep_idx)

let left_outer_join left right ~left_key ~right_key ~defaults =
  let ls = Table.schema left in
  let li = Schema.index_of ls left_key in
  let ri, keep_cols, keep_idx = right_keep_info right ~right_key in
  if List.length defaults <> List.length keep_cols then
    invalid_arg
      (Printf.sprintf
         "Kernel.left_outer_join: %d defaults for %d right columns"
         (List.length defaults) (List.length keep_cols));
  List.iter2
    (fun v (c : Schema.column) ->
       if Value.type_of v <> c.ty then
         invalid_arg
           (Printf.sprintf
              "Kernel.left_outer_join: default for %s has type %s, \
               expected %s"
              c.name
              (Value.ty_to_string (Value.type_of v))
              (Value.ty_to_string c.ty)))
    defaults keep_cols;
  let out_schema =
    if keep_cols = [] then ls else Schema.concat ls (Schema.make keep_cols)
  in
  let matches = Hashtbl.create (max 16 (Table.row_count right)) in
  Array.iter
    (fun rrow -> Hashtbl.add matches rrow.(ri) rrow)
    (Table.rows right);
  let default_row = Array.of_list defaults in
  let out = ref [] in
  Array.iter
    (fun lrow ->
       match Hashtbl.find_all matches lrow.(li) with
       | [] -> out := Array.append lrow default_row :: !out
       | rrows ->
         List.iter
           (fun rrow ->
              let extra = Array.map (fun j -> rrow.(j)) keep_idx in
              out := Array.append lrow extra :: !out)
           rrows)
    (Table.rows left);
  Table.create_unchecked out_schema (Array.of_list (List.rev !out))

let key_membership right ~right_key =
  let ri = Schema.index_of (Table.schema right) right_key in
  let keys = Hashtbl.create (max 16 (Table.row_count right)) in
  Array.iter (fun rrow -> Hashtbl.replace keys rrow.(ri) ()) (Table.rows right);
  keys

let semi_join left right ~left_key ~right_key =
  let li = Schema.index_of (Table.schema left) left_key in
  let keys = key_membership right ~right_key in
  Table.create_unchecked (Table.schema left)
    (filter_rows (fun lrow -> Hashtbl.mem keys lrow.(li)) (Table.rows left))

let anti_join left right ~left_key ~right_key =
  let li = Schema.index_of (Table.schema left) left_key in
  let keys = key_membership right ~right_key in
  Table.create_unchecked (Table.schema left)
    (filter_rows
       (fun lrow -> not (Hashtbl.mem keys lrow.(li)))
       (Table.rows left))

let cross_join left right =
  match Columnar.try_cross left right with
  | Some r -> Table.settle r
  | None ->
  row_path "cross";
  let out_schema = Schema.concat (Table.schema left) (Table.schema right) in
  let out = ref [] in
  Array.iter
    (fun lrow ->
       Array.iter
         (fun rrow -> out := Array.append lrow rrow :: !out)
         (Table.rows right))
    (Table.rows left);
  Table.create_unchecked out_schema (Array.of_list (List.rev !out))

let check_union_compatible a b =
  if not (Schema.equal (Table.schema a) (Table.schema b)) then
    invalid_arg
      (Printf.sprintf "Kernel: incompatible schemas %s vs %s"
         (Schema.to_string (Table.schema a))
         (Schema.to_string (Table.schema b)))

let union_all a b =
  check_union_compatible a b;
  Table.create_unchecked (Table.schema a)
    (Array.append (Table.rows a) (Table.rows b))

let distinct t =
  let seen = Hashtbl.create (max 16 (Table.row_count t)) in
  let out = ref [] in
  Array.iter
    (fun row ->
       if not (Hashtbl.mem seen row) then begin
         Hashtbl.add seen row ();
         out := row :: !out
       end)
    (Table.rows t);
  Table.create_unchecked (Table.schema t) (Array.of_list (List.rev !out))

let union a b = distinct (union_all a b)

let intersect a b =
  check_union_compatible a b;
  let in_b = Hashtbl.create (max 16 (Table.row_count b)) in
  Array.iter (fun row -> Hashtbl.replace in_b row ()) (Table.rows b);
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iter
    (fun row ->
       if Hashtbl.mem in_b row && not (Hashtbl.mem seen row) then begin
         Hashtbl.add seen row ();
         out := row :: !out
       end)
    (Table.rows a);
  Table.create_unchecked (Table.schema a) (Array.of_list (List.rev !out))

let difference a b =
  check_union_compatible a b;
  let in_b = Hashtbl.create (max 16 (Table.row_count b)) in
  Array.iter (fun row -> Hashtbl.replace in_b row ()) (Table.rows b);
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iter
    (fun row ->
       if (not (Hashtbl.mem in_b row)) && not (Hashtbl.mem seen row) then begin
         Hashtbl.add seen row ();
         out := row :: !out
       end)
    (Table.rows a);
  Table.create_unchecked (Table.schema a) (Array.of_list (List.rev !out))

(* Aggregation descriptors (column indexes, output schema) are hoisted
   out of the row loop, and per-group accumulators are state arrays
   mutated in place — the old version rebuilt [List.combine aggs inputs]
   and consed fresh state lists for every row. *)
let serial_group_by t ~keys ~aggs =
  let schema = Table.schema t in
  let key_idxs = Array.of_list (List.map (Schema.index_of schema) keys) in
  let aggs_a = Array.of_list aggs in
  let inputs_a =
    Array.map
      (fun (a : Aggregate.t) ->
         Option.map (Schema.index_of schema) (Aggregate.input_column a.fn))
      aggs_a
  in
  (* group order = first appearance, for deterministic output *)
  let groups : (Value.t array, Aggregate.state array) Hashtbl.t =
    Hashtbl.create (max 16 (Table.row_count t))
  in
  let order = ref [] in
  Array.iter
    (fun row ->
       let key = Array.map (fun i -> row.(i)) key_idxs in
       let states =
         match Hashtbl.find_opt groups key with
         | Some s -> s
         | None ->
           let s =
             Array.map (fun (a : Aggregate.t) -> Aggregate.init a.fn) aggs_a
           in
           Hashtbl.add groups key s;
           order := key :: !order;
           s
       in
       Array.iteri
         (fun j (a : Aggregate.t) ->
            let v = Option.map (fun i -> row.(i)) inputs_a.(j) in
            states.(j) <- Aggregate.step a.fn states.(j) v)
         aggs_a)
    (Table.rows t);
  let cols = Array.of_list (Schema.columns schema) in
  let key_cols = List.map (fun k -> cols.(Schema.index_of schema k)) keys in
  let agg_cols =
    Array.to_list
      (Array.mapi
         (fun j (a : Aggregate.t) ->
            let input_ty =
              Option.map (fun i -> cols.(i).Schema.ty) inputs_a.(j)
            in
            { Schema.name = a.as_name;
              ty = Aggregate.result_type a.fn ~input:input_ty })
         aggs_a)
  in
  let out_schema = Schema.make (key_cols @ agg_cols) in
  let mk_row key states =
    Array.append key
      (Array.mapi
         (fun j st -> Aggregate.finish aggs_a.(j).Aggregate.fn st)
         states)
  in
  let out =
    if keys = [] && Hashtbl.length groups = 0 then
      (* global aggregate over an empty table still yields one row *)
      [ mk_row [||]
          (Array.map (fun (a : Aggregate.t) -> Aggregate.init a.fn) aggs_a) ]
    else
      List.rev_map (fun key -> mk_row key (Hashtbl.find groups key)) !order
  in
  Table.create_unchecked out_schema (Array.of_list out)

let group_by t ~keys ~aggs =
  match Columnar.try_group_by t ~keys ~aggs with
  | Some r -> r
  | None ->
  row_path "group_by";
  let mergeable =
    List.for_all (Par.exactly_mergeable (Table.schema t)) aggs
  in
  if not mergeable then serial_group_by t ~keys ~aggs
  else
    dispatch "group_by" ~rows:(Table.row_count t)
      (fun () -> serial_group_by t ~keys ~aggs)
      (fun ~jobs -> Par.group_by ~jobs t ~keys ~aggs)

let top_k t ~by ~descending ~k =
  (* one sort with the final comparator, then a prefix slice — the old
     version always sorted ascending and reversed the whole array for
     descending *)
  let sorted = Table.sort_by ~descending t [ by ] in
  let rows = Table.rows sorted in
  let n = min k (Array.length rows) in
  Table.create_unchecked (Table.schema t) (Array.sub rows 0 n)

let sample t ~fraction ~seed =
  if fraction >= 1. then t
  else begin
    let state = Random.State.make [| seed |] in
    Table.create_unchecked (Table.schema t)
      (filter_rows
         (fun _ -> Random.State.float state 1. < fraction)
         (Table.rows t))
  end
