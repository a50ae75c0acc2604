//! `harvest`: the daemon with an object store, ingesting extractions
//! while answering queries against the same store.
//!
//! Twenty sources (four per domain) with 200-page pools come in pairs
//! that render the same entities through different templates, so
//! objects are re-sighted across sources (and fused) as well as within
//! one, while pages not yet requested keep adding new objects. The
//! traffic is 80% extracts of 4–8 pages and 20% reads: 40% `get` by
//! identity key, 30% attribute filter, 30% cursor page. Ingest writes
//! and query reads meet on the store's lock; the object store does most
//! of the work here and none in any other workload.
//!
//! Set-up and phases are those of every daemon workload (see
//! [`crate::serving`]). Checks: every extract response equals the serial
//! reference (`trace`, `stats` and `store` stripped); every query hit
//! satisfies its query (`Query::matches`, domain, cursor order); every
//! `get` hit has the requested key; a read sent after an extract was
//! answered finds that extract's objects (see [`Stored`]); and
//! afterwards the store's live key set equals the identity keys of
//! every object the answered extracts carried.

use crate::fleet;
use crate::inputs::{extract_line, mixed_spec, window, wire, Rng};
use crate::net::Client;
use crate::report::Report;
use crate::serving::{self, Pooled, DRAIN};
use crate::Ctx;
use objectrunner_core::dedup::object_key_checked;
use objectrunner_objstore::{instance_from_json, Query};
use objectrunner_sod::Instance;
use objectrunner_store::Json;
use objectrunner_webgen::{Domain, SiteSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

pub const SOURCES: usize = 20;
pub const POOL_PAGES: usize = 200;
const REQUESTS: usize = 1024;
/// Offered load of the open-loop phase, requests/s: about 20% of the
/// highest rate the seed commit sustains on a quiet two-core host with
/// its p99 under 100 ms and no growing backlog (about 350 req/s); half
/// the rate that first seemed safe, as for `serve-cached`.
pub const R_FIXED: f64 = 70.0;
/// Hits per query page.
const LIMIT: usize = 20;

/// What the checks need to know about a request.
pub enum Kind {
    /// The source's domain and the (identity key, object) pairs the
    /// reference extracted.
    Extract(Domain, Vec<(String, Instance)>),
    Get(String),
    Query(Query),
}

/// The [`Kind`] of every request, pool by pool.
pub struct Kinds {
    pub warm: Vec<Kind>,
    pub fill: Vec<Kind>,
    pub pool: Vec<Kind>,
}

pub struct Inputs {
    pub fleet: fleet::Fleet,
    pub warm: Vec<Pooled>,
    /// `get`s of the objects the warm-up stored: the cheapest requests
    /// that record a span, for filling the daemon's span ring.
    pub fill: Vec<Pooled>,
    pub pool: Vec<Pooled>,
    pub kinds: Kinds,
}

/// The objects the daemon has stored, each with the time the client
/// first held an answer that carried it. A read sent after that time
/// must see the object: a `get` of its key must hit, and a query it
/// matches must return it, unless the page filled up before its key.
#[derive(Default)]
pub struct Stored {
    /// Identity key → (first answered, domain, object). The domain is
    /// `None` when sources of two domains carried the key, so which one
    /// the store filed it under depends on arrival order.
    objects: BTreeMap<String, (Instant, Option<Domain>, Instance)>,
}

impl Stored {
    /// Record the objects of an extract answered at `done`.
    pub fn extracted(&mut self, kind: &Kind, done: Instant) {
        let Kind::Extract(domain, objects) = kind else {
            return;
        };
        for (key, object) in objects {
            let entry = self
                .objects
                .entry(key.clone())
                .or_insert_with(|| (done, Some(*domain), object.clone()));
            entry.0 = entry.0.min(done);
            if entry.1 != Some(*domain) {
                entry.1 = None;
            }
        }
    }

    pub fn keys(&self) -> BTreeSet<String> {
        self.objects.keys().cloned().collect()
    }

    /// Is a read's response consistent with its request, and with every
    /// object stored before the read was `sent`?
    pub fn holds(&self, kind: &Kind, sent: Instant, response: &str) -> bool {
        let Ok(j) = Json::parse(response) else {
            return false;
        };
        match kind {
            Kind::Extract(..) => true,
            Kind::Get(key) => match j.get("hit") {
                Some(hit) if !hit.is_null() => hit.get("key").and_then(Json::as_str) == Some(key),
                _ => {
                    j.get("found").and_then(Json::as_bool) == Some(false)
                        && self.objects.get(key).is_none_or(|o| o.0 >= sent)
                }
            },
            Kind::Query(q) => {
                let hits = j.get("hits").and_then(Json::as_arr).unwrap_or_default();
                let keys: BTreeSet<&str> = hits
                    .iter()
                    .filter_map(|h| h.get("key").and_then(Json::as_str))
                    .collect();
                let each_matches = hits.iter().all(|h| {
                    let key = h.get("key").and_then(Json::as_str).unwrap_or_default();
                    let object = h.get("object").map(instance_from_json);
                    q.domain.as_deref() == h.get("domain").and_then(Json::as_str)
                        && q.cursor.as_deref().is_none_or(|c| key > c)
                        && matches!(object, Some(Ok(o)) if q.matches(&o))
                });
                // A full page ends at its last key; a short one scanned
                // to the end of the key space.
                let end = (hits.len() == q.limit)
                    .then(|| keys.last().copied())
                    .flatten();
                let none_missing = self
                    .objects
                    .iter()
                    .filter(|(key, (at, domain, object))| {
                        *at < sent
                            && q.cursor.as_deref().is_none_or(|c| key.as_str() > c)
                            && end.is_none_or(|e| key.as_str() <= e)
                            && q.domain
                                .as_deref()
                                .is_none_or(|d| domain.as_ref().map(Domain::name) == Some(d))
                            && q.matches(object)
                    })
                    .all(|(key, _)| keys.contains(key.as_str()));
                hits.len() <= q.limit && each_matches && none_missing
            }
        }
    }
}

/// Sources in pairs: the second of a pair re-renders the first's
/// entities (same seed and quirks) through another style and markup.
fn paired_specs() -> impl FnMut(usize, &str, &mut Rng) -> SiteSpec {
    let mut first: Option<SiteSpec> = None;
    // Candidates tried for the current slot: a twin that failed to
    // induce cleanly is retried in the next style.
    let (mut slot, mut tries) = (usize::MAX, 0);
    move |k, name, rng| {
        tries = if k == slot { tries + 1 } else { 0 };
        slot = k;
        match (&first, k % 2) {
            (Some(spec), 1) => {
                let mut twin = spec.clone();
                twin.name = name.to_owned();
                twin.style = (spec.style + 1 + tries) % 3;
                twin.distinct_markup = !spec.distinct_markup;
                twin
            }
            _ => {
                let domain = Domain::ALL[(k / 2) % Domain::ALL.len()];
                let spec = mixed_spec(name, domain, POOL_PAGES, k / 2, rng);
                first = Some(spec.clone());
                spec
            }
        }
    }
}

/// The keyed objects of a reference extract response.
fn extracted(response: &str, domain: Domain) -> Result<Kind, String> {
    let j = Json::parse(response).map_err(|e| format!("reference response: {e}"))?;
    let attrs = domain.key_attributes();
    let mut out = Vec::new();
    for o in j.get("objects").and_then(Json::as_arr).unwrap_or_default() {
        let instance = instance_from_json(o)?;
        if let Ok(key) = object_key_checked(&instance, &attrs) {
            out.push((key, instance));
        }
    }
    Ok(Kind::Extract(domain, out))
}

pub fn inputs(ctx: &Ctx) -> Result<Inputs, String> {
    let (sources, pool_pages, requests) = if ctx.smoke {
        (4, 24, 64)
    } else {
        (SOURCES, POOL_PAGES, REQUESTS)
    };
    let mut specs = paired_specs();
    let fleet = fleet::induce(
        ctx.seed,
        "harvest",
        sources,
        &ctx.path("store"),
        |k, name, rng| {
            let mut spec = specs(k, name, rng);
            spec.pages = pool_pages;
            spec
        },
    )?;
    let reference = fleet::service(&fleet.store, None);

    let mut warm = Vec::new();
    let mut warm_kinds = Vec::new();
    for s in &fleet.sources {
        let line = extract_line(&s.name, [&s.pages[0]]);
        let response = reference.handle_line(&line);
        warm_kinds.push(extracted(&response, s.domain)?);
        warm.push(Pooled {
            line: wire(line),
            pages: 1,
            reference: Some(response),
        });
    }

    // The pool's mix is exact: 80% extracts (sources in turn, 4–8
    // pages in turn), then reads naming the extracted objects: 40%
    // `get`, 30% filter, 30% cursor page.
    let mut rng = Rng::fork(ctx.seed, "harvest-requests");
    let extracts = requests * 4 / 5;
    let mut pool = Vec::with_capacity(requests);
    let mut kinds = Vec::with_capacity(requests);
    // Objects the reads can name.
    let mut seen: Vec<(Domain, String, Instance)> = Vec::new();
    for i in 0..extracts {
        let s = &fleet.sources[i % fleet.sources.len()];
        let n = 4 + i % 5;
        let line = extract_line(&s.name, window(&s.pages, rng.below(s.pages.len()), n));
        let response = reference.handle_line(&line);
        let kind = extracted(&response, s.domain)?;
        if let Kind::Extract(_, objects) = &kind {
            seen.extend(
                objects
                    .iter()
                    .map(|(k, o)| (s.domain, k.clone(), o.clone())),
            );
        }
        kinds.push(kind);
        pool.push(Pooled {
            line: wire(line),
            pages: n,
            reference: Some(response),
        });
    }
    for i in 0..requests - extracts {
        let (domain, key, object) = &seen[rng.below(seen.len())];
        let line = match i % 10 {
            0..=3 => Json::Obj(vec![
                ("cmd".into(), Json::str("get")),
                ("key".into(), Json::str(key.as_str())),
            ]),
            4..=6 => {
                let attr = domain.key_attributes()[0];
                // Browse by initial: a prefix selective enough to fill
                // a page after a bounded scan.
                let initial: String = object
                    .flatten()
                    .into_iter()
                    .find(|(t, _)| *t == attr)
                    .and_then(|(_, v)| v.chars().next())
                    .map(String::from)
                    .unwrap_or_default();
                let filter = Json::Obj(vec![
                    ("attr".into(), Json::str(attr)),
                    ("op".into(), Json::str("prefix")),
                    ("value".into(), Json::str(initial)),
                ]);
                Json::Obj(vec![
                    ("cmd".into(), Json::str("query")),
                    ("domain".into(), Json::str(domain.name())),
                    ("where".into(), Json::Arr(vec![filter])),
                    ("limit".into(), Json::int(LIMIT)),
                ])
            }
            _ => Json::Obj(vec![
                ("cmd".into(), Json::str("query")),
                ("domain".into(), Json::str(domain.name())),
                ("limit".into(), Json::int(LIMIT)),
                ("cursor".into(), Json::str(key.as_str())),
            ]),
        };
        let line = line.render();
        kinds.push(read_kind(&line).ok_or("read request does not parse")?);
        pool.push(Pooled {
            line: wire(line),
            pages: 0,
            reference: None,
        });
    }
    let (fill, fill_kinds) = warm_kinds
        .iter()
        .flat_map(|kind| match kind {
            Kind::Extract(_, objects) => objects.as_slice(),
            _ => &[],
        })
        .map(|(key, _)| {
            let line = Json::Obj(vec![
                ("cmd".into(), Json::str("get")),
                ("key".into(), Json::str(key.as_str())),
            ]);
            let pooled = Pooled {
                line: wire(line.render()),
                pages: 0,
                reference: None,
            };
            (pooled, Kind::Get(key.clone()))
        })
        .unzip();
    Ok(Inputs {
        fleet,
        warm,
        fill,
        pool,
        kinds: Kinds {
            warm: warm_kinds,
            fill: fill_kinds,
            pool: kinds,
        },
    })
}

/// What a read request asks for; `None` for anything but a read.
fn read_kind(line: &str) -> Option<Kind> {
    let j = Json::parse(line).ok()?;
    match j.get("cmd").and_then(Json::as_str)? {
        "get" => Some(Kind::Get(j.get("key")?.as_str()?.to_owned())),
        "query" => Query::from_json(&j).ok().map(Kind::Query),
        _ => None,
    }
}

/// Walk the whole store by cursor and return its live keys.
fn live_keys(client: &mut Client) -> Result<BTreeSet<String>, String> {
    let mut keys = BTreeSet::new();
    let mut cursor: Option<String> = None;
    loop {
        let mut q = vec![
            ("cmd".into(), Json::str("query")),
            ("limit".into(), Json::int(500)),
        ];
        if let Some(c) = &cursor {
            q.push(("cursor".into(), Json::str(c.as_str())));
        }
        let line = wire(Json::Obj(q).render());
        let response = client
            .call(0, &line, DRAIN)
            .map_err(|e| format!("walk: {e}"))?
            .response;
        let j = Json::parse(&response).map_err(|e| format!("walk: {e}"))?;
        for h in j.get("hits").and_then(Json::as_arr).unwrap_or_default() {
            keys.insert(
                h.get("key")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
            );
        }
        match j.get("next_cursor").and_then(Json::as_str) {
            Some(c) => cursor = Some(c.to_owned()),
            None => return Ok(keys),
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let inputs = inputs(ctx)?;
    let args = vec![
        "--store".to_owned(),
        inputs.fleet.store.display().to_string(),
        "--object-store".to_owned(),
        ctx.path("objects").display().to_string(),
    ];
    let (daemon, setup) = serving::cold_starts(ctx, &args, &inputs.warm)?;
    // Every read below is sent after the warm-up was answered.
    let mut stored = Stored::default();
    let warmed = Instant::now();
    for kind in &inputs.kinds.warm {
        stored.extracted(kind, warmed);
    }
    serving::fill_span_ring(ctx, &daemon, &inputs.fill, &mut |r, c| {
        let kind = &inputs.kinds.fill[c.id];
        r.answered(&c.response, stored.holds(kind, c.sent, &c.response))
    })?;
    let phases = serving::measure(
        ctx,
        &daemon,
        &inputs.pool,
        "harvest-traffic",
        R_FIXED,
        &mut |r: &mut Report, c| match &inputs.kinds.pool[c.id] {
            kind @ Kind::Extract(..) => {
                if crate::check::ok(&c.response) {
                    stored.extracted(kind, c.done);
                }
                serving::check(r, &inputs.pool, c)
            }
            kind => r.answered(&c.response, stored.holds(kind, c.sent, &c.response)),
        },
    )?;

    let mut client = Client::connect(daemon.addr, 1).map_err(|e| format!("connect: {e}"))?;
    let live = live_keys(&mut client)?;
    let expected = stored.keys();
    if live != expected {
        ctx.report.mismatched += 1;
        eprintln!(
            "ledger: live key set differs from the reference: {} live, {} expected, \
             {} missing, {} extra",
            live.len(),
            expected.len(),
            expected.difference(&live).count(),
            live.difference(&expected).count()
        );
    }
    eprintln!("ledger: object store holds {} live objects", live.len());
    drop(daemon);
    serving::emit(ctx, &setup, &phases, R_FIXED, "extract/query mix");
    Ok(())
}
