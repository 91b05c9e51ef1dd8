//! Access control manager (§6).
//!
//! The paper requires a *tight connection* between access control and
//! locking: "if objects are to be locked implicitly by complex operations
//! the access control manager should be consulted to grant no lock which
//! allows more operations than the access control admits" — e.g. a user
//! expanding a chip gets only read locks on customized standard cells.
//!
//! Rights are granted per user on individual objects, on named classes, or
//! as a default; object grants override class grants override the default.

use std::collections::HashMap;

use ccdb_core::Surrogate;

use crate::lock::LockMode;

/// What a user may do with an object.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Right {
    /// No access at all.
    None,
    /// Read-only access (the paper's protected "standard objects").
    Read,
    /// Full read/update access.
    Update,
}

impl Right {
    /// Cap a requested mode to this right. `None` = not even readable.
    pub fn cap(self, requested: LockMode) -> Option<LockMode> {
        match self {
            Right::None => None,
            Right::Update => Some(requested),
            Right::Read => Some(match requested {
                LockMode::X | LockMode::SIX | LockMode::S => LockMode::S,
                LockMode::IX | LockMode::IS => LockMode::IS,
            }),
        }
    }
}

/// One user's grants.
#[derive(Clone, Debug, Default)]
struct UserRights {
    default: Option<Right>,
    classes: HashMap<String, Right>,
    objects: HashMap<Surrogate, Right>,
}

/// Per-user rights registry.
#[derive(Clone, Debug, Default)]
pub struct AccessControl {
    users: HashMap<String, UserRights>,
}

impl AccessControl {
    /// Empty registry: unknown users get [`Right::Update`] everywhere
    /// (access control is opt-in, as in the paper's scenario where only
    /// standard cells are protected).
    pub fn new() -> Self {
        AccessControl::default()
    }

    fn user_mut(&mut self, user: &str) -> &mut UserRights {
        self.users.entry(user.to_string()).or_default()
    }

    /// Set a user's default right.
    pub fn set_default(&mut self, user: &str, right: Right) {
        self.user_mut(user).default = Some(right);
    }

    /// Grant a right on all members of a named class.
    pub fn grant_class(&mut self, user: &str, class: &str, right: Right) {
        self.user_mut(user).classes.insert(class.to_string(), right);
    }

    /// Grant a right on one object.
    pub fn grant_object(&mut self, user: &str, obj: Surrogate, right: Right) {
        self.user_mut(user).objects.insert(obj, right);
    }

    /// Effective right of `user` on `obj`. Consulted on every lock
    /// acquisition, so `classes` — the classes `obj` is a member of — is
    /// only asked for once the user turns out to have grants, none of them
    /// on `obj` itself (a user without any gets [`Right::Update`]
    /// everywhere, which is every wire session).
    pub fn right<'c>(
        &self,
        user: &str,
        obj: Surrogate,
        classes: impl FnOnce() -> Vec<&'c str>,
    ) -> Right {
        let Some(u) = self.users.get(user) else {
            return Right::Update;
        };
        if let Some(r) = u.objects.get(&obj) {
            return *r;
        }
        classes()
            .iter()
            .filter_map(|c| u.classes.get(*c).copied())
            .max()
            .or(u.default)
            .unwrap_or(Right::Update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rights_cap_lock_modes() {
        assert_eq!(Right::Read.cap(LockMode::X), Some(LockMode::S));
        assert_eq!(Right::Read.cap(LockMode::S), Some(LockMode::S));
        assert_eq!(Right::Read.cap(LockMode::IX), Some(LockMode::IS));
        assert_eq!(Right::Update.cap(LockMode::X), Some(LockMode::X));
        assert_eq!(Right::None.cap(LockMode::S), None);
    }

    #[test]
    fn precedence_object_over_class_over_default() {
        let mut ac = AccessControl::new();
        ac.set_default("eve", Right::None);
        ac.grant_class("eve", "StandardCells", Right::Read);
        ac.grant_object("eve", Surrogate(7), Right::Update);
        assert_eq!(ac.right("eve", Surrogate(1), Vec::new), Right::None);
        assert_eq!(
            ac.right("eve", Surrogate(2), || vec!["StandardCells"]),
            Right::Read
        );
        assert_eq!(
            ac.right("eve", Surrogate(7), || vec!["StandardCells"]),
            Right::Update
        );
    }

    #[test]
    fn unknown_users_default_to_update() {
        let ac = AccessControl::new();
        assert_eq!(ac.right("nobody", Surrogate(1), Vec::new), Right::Update);
    }

    #[test]
    fn strongest_class_right_wins() {
        let mut ac = AccessControl::new();
        ac.grant_class("amy", "A", Right::Read);
        ac.grant_class("amy", "B", Right::Update);
        assert_eq!(
            ac.right("amy", Surrogate(1), || vec!["A", "B"]),
            Right::Update
        );
    }
}
