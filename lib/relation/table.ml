(* A table is a schema plus row data in one of three physical
   representations:

   - row-backed: [Value.t array array], the seed engine's layout;
   - column-backed: one typed {!Column.t} per schema column (unboxed
     int/float/bool arrays, dictionary-encoded strings);
   - a view: column groups, each a set of base columns read through one
     shared row-index vector. JOIN, CROSS and SELECT return views, so a
     column nobody reads is never gathered (late materialization).

   Rows and columns are materialized lazily from whichever form the
   table has and memoized, so the whole pre-columnar API ([rows], [get],
   [create], ...) keeps working unchanged while the vectorized kernels
   exchange columns and views. The conversions are exact inverses (see
   Column), which is what the columnar differential suite proves
   end-to-end.

   Memo fields are unsynchronized on purpose: tables are immutable, so
   concurrent domains can at worst both compute the same value and race
   to store it — a benign race; a stale [None]/[-1] just recomputes. A
   view is dropped only after its columns are stored, so a reader that
   finds no view always finds the columns. *)

type view = {
  idx : int array array;
  vcols : (Column.t * int) array;
}

type t = {
  schema : Schema.t;
  nrows : int;
  mutable rows_v : Value.t array array option;
  mutable cols_v : Column.t array option;
  mutable view_v : view option;
  mutable encoded : int;  (* memoized [encoded_bytes]; -1 = not computed *)
}

let check_row schema i row =
  if Array.length row <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Table.create: row %d has arity %d, schema %s" i
         (Array.length row) (Schema.to_string schema));
  List.iteri
    (fun j (c : Schema.column) ->
       let ty = Value.type_of row.(j) in
       if ty <> c.ty then
         invalid_arg
           (Printf.sprintf
              "Table.create: row %d column %s has type %s, expected %s" i
              c.name (Value.ty_to_string ty) (Value.ty_to_string c.ty)))
    (Schema.columns schema)

let of_rows schema rows =
  { schema; nrows = Array.length rows; rows_v = Some rows; cols_v = None;
    view_v = None; encoded = -1 }

(* a column-backed table from kernel output, correct by construction *)
let of_columns_unchecked schema cols =
  let nrows = if Array.length cols = 0 then 0 else Column.length cols.(0) in
  { schema; nrows; rows_v = None; cols_v = Some cols; view_v = None;
    encoded = -1 }

let create schema rows =
  List.iteri (check_row schema) rows;
  of_rows schema (Array.of_list rows)

let create_unchecked schema rows = of_rows schema rows

let empty schema = of_rows schema [||]

let of_columns schema cols =
  let arity = Schema.arity schema in
  if Array.length cols <> arity then
    invalid_arg
      (Printf.sprintf "Table.of_columns: %d columns for schema %s"
         (Array.length cols) (Schema.to_string schema));
  let nrows = if arity = 0 then 0 else Column.length cols.(0) in
  List.iteri
    (fun j (c : Schema.column) ->
       let col = cols.(j) in
       if Column.length col <> nrows then
         invalid_arg
           (Printf.sprintf
              "Table.of_columns: column %s has %d rows, expected %d" c.name
              (Column.length col) nrows);
       if Column.ty col <> c.ty then
         invalid_arg
           (Printf.sprintf
              "Table.of_columns: column %s has type %s, expected %s" c.name
              (Value.ty_to_string (Column.ty col))
              (Value.ty_to_string c.ty));
       if not (Column.all_valid col) then
         invalid_arg
           (Printf.sprintf
              "Table.of_columns: column %s has null slots (tables are \
               non-nullable)"
              c.name))
    (Schema.columns schema);
  of_columns_unchecked schema cols

let schema t = t.schema

let row_count t = t.nrows

let is_empty t = row_count t = 0

(* ---- views ---- *)

let view_materialized = "kernel.view.materialized"

let force_view t v =
  Obs.Metrics.incr Obs.Metrics.default view_materialized;
  let cols =
    Array.map
      (fun (c, g) -> if g < 0 then c else Column.gather c v.idx.(g))
      v.vcols
  in
  t.cols_v <- Some cols;
  t.view_v <- None;
  cols

let columns t =
  match t.cols_v with
  | Some cols -> cols
  | None -> (
    match t.view_v with
    | Some v -> force_view t v
    | None ->
      let rows = Option.get t.rows_v in
      let col_tys =
        Array.of_list
          (List.map (fun (c : Schema.column) -> c.ty)
             (Schema.columns t.schema))
      in
      let cols =
        Array.mapi
          (fun j ty ->
             Column.of_values ty (Array.map (fun row -> row.(j)) rows))
          col_tys
      in
      t.cols_v <- Some cols;
      cols)

let rows t =
  match t.rows_v with
  | Some rows -> rows
  | None ->
    let cols = columns t in
    let arity = Array.length cols in
    let rows =
      Array.init t.nrows (fun i ->
          Array.init arity (fun j -> Column.get cols.(j) i))
    in
    t.rows_v <- Some rows;
    rows

let is_columnar t = t.cols_v <> None

let is_view t = t.view_v <> None

let materialize t =
  if is_view t then ignore (columns t);
  t

(* the columns, when the table has them or is a view *)
let cols_opt t = if is_view t then Some (columns t) else t.cols_v

let parts t =
  match t.view_v with
  | Some v -> v
  | None -> { idx = [||]; vcols = Array.map (fun c -> (c, -1)) (columns t) }

let column_at t j =
  match t.view_v with
  | Some v ->
    let c, g = v.vcols.(j) in
    if g < 0 then c else Column.gather c v.idx.(g)
  | None -> (columns t).(j)

let compose (ix : int array) (keep : int array) =
  let n = Array.length keep in
  let out = Array.make n 0 in
  for k = 0 to n - 1 do
    out.(k) <- ix.(keep.(k))
  done;
  out

let reindex v keep =
  let groups = Array.length v.idx in
  { idx = Array.append (Array.map (fun ix -> compose ix keep) v.idx) [| keep |];
    vcols = Array.map (fun (c, g) -> (c, if g < 0 then groups else g)) v.vcols }

let concat_views a b =
  let shift = Array.length a.idx in
  { idx = Array.append a.idx b.idx;
    vcols =
      Array.append a.vcols
        (Array.map
           (fun (c, g) -> (c, if g < 0 then g else g + shift))
           b.vcols) }

(* A view whose columns are all row-aligned is plain columns; groups no
   column reads are dropped, so no kernel composes or keeps alive an
   index nobody reads. *)
let of_view schema ~rows v =
  if Array.for_all (fun (_, g) -> g < 0) v.vcols then
    of_columns_unchecked schema (Array.map fst v.vcols)
  else begin
    let used = List.sort_uniq compare (List.map snd (Array.to_list v.vcols)) in
    let used = List.filter (fun g -> g >= 0) used in
    let remap g =
      if g < 0 then g else List.length (List.filter (( > ) g) used)
    in
    let v =
      { idx = Array.of_list (List.map (Array.get v.idx) used);
        vcols = Array.map (fun (c, g) -> (c, remap g)) v.vcols }
    in
    { schema; nrows = rows; rows_v = None; cols_v = None; view_v = Some v;
      encoded = -1 }
  end

(* [Column.gather] compacts a dictionary when it selects fewer rows than
   the dictionary has entries. A chain of eager gathers applies that
   rule at every step, so each kernel whose eager form gathers settles
   its view: indexed dictionary columns that the rule would compact at
   this row count are gathered now, exactly as the eager gather would
   have. Every other indexed column then gathers without compaction,
   whatever it is read through later. *)
let settle t =
  let compacts (c, g) =
    g >= 0
    && match Column.dictionary_size c with
       | Some d -> t.nrows < d
       | None -> false
  in
  match t.view_v with
  | Some v when Array.exists compacts v.vcols ->
    of_view t.schema ~rows:t.nrows
      { v with
        vcols =
          Array.map
            (fun ((c, g) as e) ->
               if compacts e then (Column.gather c v.idx.(g), -1) else e)
            v.vcols }
  | _ -> t

let column t name =
  let i = Schema.index_of t.schema name in
  match cols_opt t with
  | Some cols -> Column.to_values cols.(i)
  | None -> Array.map (fun row -> row.(i)) (rows t)

let get t i name =
  let j = Schema.index_of t.schema name in
  match cols_opt t with
  | Some cols -> Column.get cols.(j) i
  | None -> (rows t).(i).(j)

(* ---- modeled encoded size (dictionary-aware) ----

   Strings are charged once per distinct value plus 4 bytes per row of
   dictionary code — the columnar on-disk model — rather than the old
   per-row [len+1], which overstated low-cardinality columns by orders
   of magnitude. Computed from whichever representation the table
   already has, so sizing never forces a conversion. *)

let encoded_of_rows schema rows =
  let n = Array.length rows in
  let total = ref 0 in
  List.iteri
    (fun j (c : Schema.column) ->
       match c.ty with
       | Value.Tint | Value.Tfloat -> total := !total + (8 * n)
       | Value.Tbool -> total := !total + n
       | Value.Tstring ->
         let distinct : (string, unit) Hashtbl.t = Hashtbl.create 64 in
         let dict_bytes = ref 0 in
         Array.iter
           (fun row ->
              match row.(j) with
              | Value.Str s ->
                if not (Hashtbl.mem distinct s) then begin
                  Hashtbl.add distinct s ();
                  dict_bytes := !dict_bytes + String.length s + 1
                end
              | _ -> ())
           rows;
         total := !total + (4 * n) + !dict_bytes)
    (Schema.columns schema);
  !total

(* per-column bytes of the columns the table has or would materialize:
   a settled indexed column gathers without compaction, so its size
   follows from the row count and the base dictionary alone *)
let column_bytes t =
  let t = settle t in
  match t.view_v with
  | Some v ->
    Array.map
      (fun (c, g) ->
         if g < 0 then Column.encoded_bytes c
         else Column.gathered_bytes c ~rows:t.nrows)
      v.vcols
  | None -> Array.map Column.encoded_bytes (columns t)

let encoded_bytes t =
  if t.encoded >= 0 then t.encoded
  else begin
    let n =
      match (t.cols_v, t.view_v, t.rows_v) with
      | None, None, Some rows -> encoded_of_rows t.schema rows
      | _ -> Array.fold_left ( + ) 0 (column_bytes t)
    in
    t.encoded <- n;
    n
  end

let encoded_mb t = float_of_int (encoded_bytes t) /. (1024. *. 1024.)

let compare_rows a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then 0
    else
      match Value.compare a.(i) b.(i) with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

(* Rows below this count sort serially even when the pool has workers:
   chunking tiny arrays costs more than it saves. *)
let par_sort_threshold = 2048

(* Stable k-way merge of sorted chunks; on ties the lowest chunk index
   wins, so merging index-ordered chunks reproduces a global stable
   sort exactly. Chunk counts are small (= jobs), so the linear scan
   over heads beats a heap. *)
let merge_sorted cmp (chunks : Value.t array array array) =
  let k = Array.length chunks in
  let idx = Array.make k 0 in
  let total = Array.fold_left (fun s c -> s + Array.length c) 0 chunks in
  let out = Array.make total [||] in
  for o = 0 to total - 1 do
    let best = ref (-1) in
    for c = 0 to k - 1 do
      if
        idx.(c) < Array.length chunks.(c)
        && (!best < 0
            || cmp chunks.(c).(idx.(c)) chunks.(!best).(idx.(!best)) < 0)
      then best := c
    done;
    out.(o) <- chunks.(!best).(idx.(!best));
    idx.(!best) <- idx.(!best) + 1
  done;
  out

(* Stable sort of [rows] under [cmp]; parallel (per-chunk stable sort +
   stable k-way merge) when the pool allows it. Both paths realize the
   same total order — keys first, original row position on ties — so
   serial and parallel output are byte-identical. *)
let sort_rows_with cmp rows =
  let n = Array.length rows in
  let jobs = Pool.effective_jobs () in
  if jobs <= 1 || n < par_sort_threshold then begin
    let copy = Array.copy rows in
    Array.stable_sort cmp copy;
    copy
  end
  else
    merge_sorted cmp
      (Pool.run
         (Array.map
            (fun (start, len) () ->
               let chunk = Array.sub rows start len in
               Array.stable_sort cmp chunk;
               chunk)
            (Pool.chunks ~jobs n)))

let sorted_rows t = sort_rows_with compare_rows (rows t)

let equal_unordered a b =
  Schema.equal a.schema b.schema
  && row_count a = row_count b
  &&
  let ra = sorted_rows a and rb = sorted_rows b in
  let n = Array.length ra in
  let rec go i = i >= n || (compare_rows ra.(i) rb.(i) = 0 && go (i + 1)) in
  go 0

(* CSV with '|' separators: none of the generated data contains '|', and
   the simulated HDFS never faces adversarial input. *)
let sep = '|'

let to_csv t =
  let buf = Buffer.create (16 * (row_count t + 1)) in
  (match cols_opt t with
   | Some cols ->
     (* stream straight off the columns; no boxed rows materialized *)
     let arity = Array.length cols in
     for i = 0 to t.nrows - 1 do
       for j = 0 to arity - 1 do
         if j > 0 then Buffer.add_char buf sep;
         Buffer.add_string buf (Value.to_string (Column.get cols.(j) i))
       done;
       Buffer.add_char buf '\n'
     done
   | None ->
     Array.iter
       (fun row ->
          Array.iteri
            (fun j v ->
               if j > 0 then Buffer.add_char buf sep;
               Buffer.add_string buf (Value.to_string v))
            row;
          Buffer.add_char buf '\n')
       (rows t));
  Buffer.contents buf

let of_csv schema s =
  let types =
    List.map (fun (c : Schema.column) -> c.ty) (Schema.columns schema)
  in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  if Column.enabled () then begin
    (* parse straight into column builders: loaded relations start
       column-backed, so the first kernel pays no conversion *)
    let builders =
      Array.of_list
        (List.map (fun ty -> Column.Builder.create ~capacity:64 ty) types)
    in
    let tys = Array.of_list types in
    let arity = Array.length tys in
    List.iter
      (fun line ->
         let fields = String.split_on_char sep line in
         if List.length fields <> arity then
           invalid_arg (Printf.sprintf "Table.of_csv: bad line %S" line);
         List.iteri
           (fun j f -> Column.Builder.push builders.(j) (Value.parse tys.(j) f))
           fields)
      lines;
    of_columns schema (Array.map Column.Builder.to_column builders)
  end
  else begin
    let parse_line line =
      let fields = String.split_on_char sep line in
      if List.length fields <> List.length types then
        invalid_arg (Printf.sprintf "Table.of_csv: bad line %S" line);
      Array.of_list (List.map2 Value.parse types fields)
    in
    of_rows schema (Array.of_list (List.map parse_line lines))
  end

(* ---- sorting ---- *)

(* Columnar sort: stable-sort a permutation of row indexes with typed
   per-column comparators ({!Column.compare_at} matches Value.compare's
   same-type semantics exactly), then gather every column through the
   permutation. Ties keep ascending index order — the original row
   order — so the result is byte-identical to the row engine's stable
   sort, while never touching a boxed value. *)
let columnar_sort_by ~descending t names =
  let cols = columns t in
  let key_cols =
    List.map (fun n -> cols.(Schema.index_of t.schema n)) names
  in
  let cmp_keys i j =
    let rec go = function
      | [] -> 0
      | c :: rest -> (
        match Column.compare_at c i j with
        | 0 -> go rest
        | r -> r)
    in
    go key_cols
  in
  let cmp = if descending then fun i j -> cmp_keys j i else cmp_keys in
  let idx = Array.init t.nrows (fun i -> i) in
  Array.stable_sort cmp idx;
  of_columns t.schema (Array.map (fun c -> Column.gather c idx) cols)

(* the byte cache survives sorting: encoding is permutation-invariant *)
let sort_with t cmp =
  let sorted = of_rows t.schema (sort_rows_with cmp (rows t)) in
  sorted.encoded <- t.encoded;
  sorted

let sort_by ?(descending = false) t names =
  if Column.enabled () then begin
    let sorted = columnar_sort_by ~descending t names in
    sorted.encoded <- t.encoded;
    sorted
  end
  else begin
    let idxs = List.map (Schema.index_of t.schema) names in
    let cmp a b =
      let rec go = function
        | [] -> 0
        | i :: rest -> (
          match Value.compare a.(i) b.(i) with
          | 0 -> go rest
          | c -> c)
      in
      go idxs
    in
    let cmp = if descending then fun a b -> cmp b a else cmp in
    sort_with t cmp
  end

let pp_rows ppf t limit =
  Format.fprintf ppf "%a@." Schema.pp t.schema;
  let n = min limit (row_count t) in
  let rs = rows t in
  for i = 0 to n - 1 do
    let row = rs.(i) in
    Array.iteri
      (fun j v ->
         if j > 0 then Format.fprintf ppf " | ";
         Value.pp ppf v)
      row;
    Format.pp_print_newline ppf ()
  done;
  if row_count t > n then
    Format.fprintf ppf "... (%d rows total)@." (row_count t)

let pp ppf t = pp_rows ppf t max_int

let pp_sample ~n ppf t = pp_rows ppf t n
