//! Correctness checks run outside the timed regions: the served state must
//! match a from-scratch repair, and the change feed must compose to it.

use relacc_engine::{EntityView, Epoch, EpochId, RelationRepair};
use relacc_resolve::BlockKey;
use relacc_serve::{ChangeBatch, EntityChangeKind};
use relacc_store::RowId;
use std::collections::BTreeMap;

/// Compare an engine snapshot with a from-scratch repair of the same
/// relation: entities, outcomes, targets, suggestions, membership, match
/// decisions, repaired rows and skips.  Per-entity chase counters are left
/// out on purpose: a cached entity reports the work of the run that
/// produced it.
pub fn same_repair(served: &RelationRepair, fresh: &RelationRepair) -> Result<(), String> {
    let differ = |what: &str| Err(format!("snapshot differs from a fresh repair: {what}"));
    if served.resolved.members != fresh.resolved.members {
        return differ("resolution membership");
    }
    if served.resolved.decisions != fresh.resolved.decisions {
        return differ("match decisions");
    }
    if served.report.entities.len() != fresh.report.entities.len() {
        return differ("entity count");
    }
    for (a, b) in served.report.entities.iter().zip(&fresh.report.entities) {
        let fields = [
            ("index", a.entity == b.entity),
            ("records", a.records == b.records),
            ("outcome", a.outcome == b.outcome),
            ("deduced target", a.deduced == b.deduced),
            ("suggestion", a.suggestion == b.suggestion),
            ("suggestion error", a.suggestion_error == b.suggestion_error),
            ("conflict", a.conflict.is_some() == b.conflict.is_some()),
        ];
        if let Some((field, _)) = fields.iter().find(|(_, same)| !same) {
            return differ(&format!(
                "entity {} (records {:?}): {field}: served {:?} {:?} / fresh {:?} {:?}",
                a.entity,
                a.records,
                a.outcome,
                a.final_target(),
                b.outcome,
                b.final_target()
            ));
        }
    }
    let tallies = |r: &RelationRepair| {
        (
            r.report.complete,
            r.report.suggested,
            r.report.needs_user,
            r.report.not_church_rosser,
            r.report.suggestion_errors,
        )
    };
    if tallies(served) != tallies(fresh) {
        return differ("outcome tallies");
    }
    if served.repaired.rows() != fresh.repaired.rows() {
        return differ("repaired rows");
    }
    if served.row_entities != fresh.row_entities {
        return differ("row/entity mapping");
    }
    if served.skipped != fresh.skipped {
        return differ("skipped entities");
    }
    Ok(())
}

/// Entities keyed the way the feed addresses them (block key + member
/// records).  Values render what the feed promises to keep current — the
/// repaired row, the outcome and the final target — in `Debug` form, which
/// prints floats exactly.  Chase counters and positional indices are not
/// part of that promise: an entity re-repaired to the same result is not
/// re-sent.
pub type EntityMap = BTreeMap<(BlockKey, Vec<RowId>), String>;

pub fn entity_map(epoch: &Epoch) -> EntityMap {
    let mut map = EntityMap::new();
    for (key, block) in epoch.block_views() {
        for entity in &block.entities {
            map.insert((key.clone(), entity.records.clone()), render(entity));
        }
    }
    map
}

fn render(view: &EntityView) -> String {
    format!(
        "{:?} {:?} {:?}",
        view.repaired,
        view.result.outcome,
        view.result.final_target()
    )
}

fn apply_feed_batch(map: &mut EntityMap, batch: &ChangeBatch) {
    for change in &batch.changes {
        match &change.kind {
            EntityChangeKind::Upserted(view) => {
                map.insert((change.block.clone(), view.records.clone()), render(view));
            }
            EntityChangeKind::Removed { records } => {
                map.remove(&(change.block.clone(), records.clone()));
            }
        }
    }
}

/// A subscriber-side mirror of the served entities, kept current by the
/// feed: it starts from the epoch the subscription started at, takes every
/// batch in order, and must end equal to the final epoch.
#[derive(Debug)]
pub struct FeedMirror {
    cursor: EpochId,
    map: EntityMap,
}

impl FeedMirror {
    pub fn new(start: &Epoch) -> FeedMirror {
        FeedMirror {
            cursor: start.id(),
            map: entity_map(start),
        }
    }

    /// The epoch the mirror has caught up to.
    pub fn cursor(&self) -> EpochId {
        self.cursor
    }

    /// Take the next batch; an error when it does not start where the
    /// previous one ended, or when it is a resync.
    pub fn apply(&mut self, batch: &ChangeBatch) -> Result<(), String> {
        if batch.from_epoch != self.cursor || batch.resync {
            return Err(format!(
                "feed gap: batch {:?}->{:?} (resync {}) after cursor {:?}",
                batch.from_epoch, batch.to_epoch, batch.resync, self.cursor
            ));
        }
        self.cursor = batch.to_epoch;
        apply_feed_batch(&mut self.map, batch);
        Ok(())
    }

    pub fn matches(&self, end: &Epoch) -> Result<(), String> {
        if self.cursor != end.id() {
            return Err(format!(
                "feed stopped at {:?}, the final epoch is {:?}",
                self.cursor,
                end.id()
            ));
        }
        if self.map != entity_map(end) {
            return Err("the composed feed differs from the final epoch's entities".into());
        }
        Ok(())
    }
}
