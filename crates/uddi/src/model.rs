//! The five UDDI data structures and their canonical XML renderings.
//!
//! "The BusinessEntity data structure provides overall information about the
//! organization providing the web service, whereas the BusinessService data
//! structure provides a technical description of the service" (§2.2).

use websec_xml::{Document, NodeId};

/// A keyed categorization reference (taxonomy entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedReference {
    /// The taxonomy tModel this reference belongs to.
    pub tmodel_key: String,
    /// Human-readable name of the category.
    pub key_name: String,
    /// The category value (e.g. a NAICS code).
    pub key_value: String,
}

/// A bag of categorization references.
pub type CategoryBag = Vec<KeyedReference>;

/// Technical binding information: where and how to reach a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindingTemplate {
    /// Unique binding key.
    pub binding_key: String,
    /// Network endpoint.
    pub access_point: String,
    /// Free-text description.
    pub description: String,
    /// tModels this binding implements (interface fingerprints).
    pub tmodel_keys: Vec<String>,
}

/// A service offered by a business.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusinessService {
    /// Unique service key.
    pub service_key: String,
    /// Service name.
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Categorization.
    pub category_bag: CategoryBag,
    /// Technical bindings.
    pub binding_templates: Vec<BindingTemplate>,
}

/// Overall information about a service-providing organization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusinessEntity {
    /// Unique business key.
    pub business_key: String,
    /// Organization name.
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Contact addresses (may be sensitive — §4.1 motivates protecting
    /// them: "a service provider may not want that the information about
    /// its web services are accessible to everyone").
    pub contacts: Vec<String>,
    /// Categorization.
    pub category_bag: CategoryBag,
    /// The services this business publishes.
    pub services: Vec<BusinessService>,
}

/// A reusable technical model (interface/taxonomy descriptor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TModel {
    /// Unique tModel key.
    pub tmodel_key: String,
    /// Name.
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Pointer to the technical specification.
    pub overview_url: String,
}

/// A relationship assertion between two business entities (e.g.
/// parent–subsidiary); visible only when both sides assert it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublisherAssertion {
    /// Asserting business.
    pub from_key: String,
    /// Related business.
    pub to_key: String,
    /// Relationship type (e.g. "parent-child", "peer-peer").
    pub relationship: String,
}

impl BusinessEntity {
    /// Minimal constructor.
    #[must_use]
    pub fn new(business_key: &str, name: &str) -> Self {
        BusinessEntity {
            business_key: business_key.to_string(),
            name: name.to_string(),
            description: String::new(),
            contacts: Vec::new(),
            category_bag: Vec::new(),
            services: Vec::new(),
        }
    }

    /// Renders the entry as its canonical XML document, the representation
    /// signed and disseminated by the security layers.
    #[must_use]
    pub fn to_document(&self) -> Document {
        let mut d = Document::new("businessEntity");
        let root = d.root();
        d.set_attribute(root, "businessKey", &self.business_key);
        let name = d.add_element(root, "name");
        d.add_text(name, &self.name);
        if !self.description.is_empty() {
            let desc = d.add_element(root, "description");
            d.add_text(desc, &self.description);
        }
        if !self.contacts.is_empty() {
            let contacts = d.add_element(root, "contacts");
            for c in &self.contacts {
                let contact = d.add_element(contacts, "contact");
                d.add_text(contact, c);
            }
        }
        write_category_bag(&mut d, root, &self.category_bag);
        if !self.services.is_empty() {
            let services = d.add_element(root, "businessServices");
            for s in &self.services {
                s.write_into(&mut d, services);
            }
        }
        d
    }
}

impl BusinessService {
    /// Minimal constructor.
    #[must_use]
    pub fn new(service_key: &str, name: &str) -> Self {
        BusinessService {
            service_key: service_key.to_string(),
            name: name.to_string(),
            description: String::new(),
            category_bag: Vec::new(),
            binding_templates: Vec::new(),
        }
    }

    fn write_into(&self, d: &mut Document, parent: NodeId) {
        let svc = d.add_element(parent, "businessService");
        d.set_attribute(svc, "serviceKey", &self.service_key);
        let name = d.add_element(svc, "name");
        d.add_text(name, &self.name);
        if !self.description.is_empty() {
            let desc = d.add_element(svc, "description");
            d.add_text(desc, &self.description);
        }
        write_category_bag(d, svc, &self.category_bag);
        if !self.binding_templates.is_empty() {
            let bts = d.add_element(svc, "bindingTemplates");
            for bt in &self.binding_templates {
                let b = d.add_element(bts, "bindingTemplate");
                d.set_attribute(b, "bindingKey", &bt.binding_key);
                d.set_attribute(b, "accessPoint", &bt.access_point);
                if !bt.description.is_empty() {
                    let desc = d.add_element(b, "description");
                    d.add_text(desc, &bt.description);
                }
                for tk in &bt.tmodel_keys {
                    let t = d.add_element(b, "tModelInstance");
                    d.set_attribute(t, "tModelKey", tk);
                }
            }
        }
    }
}

impl TModel {
    /// Minimal constructor.
    #[must_use]
    pub fn new(tmodel_key: &str, name: &str) -> Self {
        TModel {
            tmodel_key: tmodel_key.to_string(),
            name: name.to_string(),
            description: String::new(),
            overview_url: String::new(),
        }
    }

    /// Canonical XML rendering.
    #[must_use]
    pub fn to_document(&self) -> Document {
        let mut d = Document::new("tModel");
        let root = d.root();
        d.set_attribute(root, "tModelKey", &self.tmodel_key);
        let name = d.add_element(root, "name");
        d.add_text(name, &self.name);
        if !self.description.is_empty() {
            let desc = d.add_element(root, "description");
            d.add_text(desc, &self.description);
        }
        if !self.overview_url.is_empty() {
            let o = d.add_element(root, "overviewDoc");
            d.set_attribute(o, "overviewURL", &self.overview_url);
        }
        d
    }
}

fn write_category_bag(d: &mut Document, parent: NodeId, bag: &CategoryBag) {
    if bag.is_empty() {
        return;
    }
    let bag_el = d.add_element(parent, "categoryBag");
    for kr in bag {
        let r = d.add_element(bag_el, "keyedReference");
        d.set_attribute(r, "tModelKey", &kr.tmodel_key);
        d.set_attribute(r, "keyName", &kr.key_name);
        d.set_attribute(r, "keyValue", &kr.key_value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BusinessEntity {
        let mut be = BusinessEntity::new("biz-1", "Acme Healthcare");
        be.description = "Hospital services".into();
        be.contacts.push("ops@acme.example".into());
        be.category_bag.push(KeyedReference {
            tmodel_key: "uddi:naics".into(),
            key_name: "sector".into(),
            key_value: "62".into(),
        });
        let mut svc = BusinessService::new("svc-1", "Appointment Scheduling");
        svc.description = "SOAP scheduling endpoint".into();
        svc.binding_templates.push(BindingTemplate {
            binding_key: "bind-1".into(),
            access_point: "https://acme.example/soap".into(),
            description: "production".into(),
            tmodel_keys: vec!["uddi:tm-1".into()],
        });
        be.services.push(svc);
        be
    }

    #[test]
    fn entity_document_structure() {
        let d = sample().to_document();
        let s = d.to_xml_string();
        assert!(
            s.starts_with("<businessEntity businessKey=\"biz-1\">"),
            "{s}"
        );
        assert!(s.contains("<name>Acme Healthcare</name>"), "{s}");
        assert!(s.contains("serviceKey=\"svc-1\""), "{s}");
        assert!(
            s.contains("accessPoint=\"https://acme.example/soap\""),
            "{s}"
        );
        assert!(s.contains("keyValue=\"62\""), "{s}");
        assert!(s.contains("ops@acme.example"), "{s}");
    }

    #[test]
    fn entity_document_queryable() {
        let d = sample().to_document();
        let p =
            websec_xml::Path::parse("/businessEntity/businessServices/businessService/@serviceKey")
                .unwrap();
        assert_eq!(p.select(&d).len(), 1);
    }

    #[test]
    fn empty_sections_omitted() {
        let be = BusinessEntity::new("b", "n");
        let s = be.to_document().to_xml_string();
        assert!(!s.contains("contacts"));
        assert!(!s.contains("categoryBag"));
        assert!(!s.contains("businessServices"));
        assert!(!s.contains("description"));
    }

    #[test]
    fn tmodel_document() {
        let mut tm = TModel::new("uddi:tm-1", "Scheduling Interface");
        tm.overview_url = "https://spec.example/wsdl".into();
        let s = tm.to_document().to_xml_string();
        assert!(s.contains("tModelKey=\"uddi:tm-1\""), "{s}");
        assert!(s.contains("overviewURL"), "{s}");
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = sample().to_document().to_xml_string();
        let b = sample().to_document().to_xml_string();
        assert_eq!(a, b);
    }
}
